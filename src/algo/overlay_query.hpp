// The former name of an overlay-routed TimeQuery (algo/time_query.hpp),
// kept only for bench/e2e/ladder.cpp, which spells it; goes with that
// file's next change.
#pragma once

#include "algo/time_query.hpp"

namespace pconn {

using OverlayTimeQuery = TimeQuery;

}  // namespace pconn
