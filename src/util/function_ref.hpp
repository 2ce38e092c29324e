// Non-owning type-erased callable reference (the classical function_ref).
//
// The fork-join code paths (ThreadPool::run, ParallelSpcs::run_partitioned)
// take callables that outlive the call by construction; owning them in a
// std::function would heap-allocate the capture state on every query and
// break the warm-path zero-allocation guarantee (docs/architecture.md).
// A FunctionRef is two words — context pointer plus invoke thunk — and is
// valid only while the referenced callable is alive.
#pragma once

#include <cstddef>
#include <type_traits>
#include <utility>

namespace pconn {

template <typename Sig>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename Fn,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<Fn>, FunctionRef>>>
  FunctionRef(Fn&& fn)  // NOLINT(google-explicit-constructor)
      : ctx_(const_cast<void*>(static_cast<const void*>(&fn))),
        invoke_([](void* ctx, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<Fn>*>(ctx))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return invoke_(ctx_, std::forward<Args>(args)...);
  }

 private:
  void* ctx_;
  R (*invoke_)(void*, Args...);
};

}  // namespace pconn
