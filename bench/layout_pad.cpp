// Code padding for bench_layout's padded twins (CMakeLists.txt).
//
// PCONN_LAYOUT_PAD bytes of nops in `.text`. A twin links one such object
// in front of bench_layout's own code and one between it and libpconn, so
// the bench's legacy loop and the library's TimeQuery (and the Ttf::eval
// the legacy loop calls) land at other offsets than in bench_layout. One
// link's legacy-vs-pooled ratio swings with those offsets; CI gates the
// median over all links (ROADMAP "Gates that measure the code").
#define PCONN_LAYOUT_STR2(x) #x
#define PCONN_LAYOUT_STR(x) PCONN_LAYOUT_STR2(x)

asm(".text\n.skip " PCONN_LAYOUT_STR(PCONN_LAYOUT_PAD) ", 0x90\n");
