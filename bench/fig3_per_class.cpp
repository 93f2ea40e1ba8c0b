// Reproduces Figure 3: online time per file and download time per file
// for peers in classes 1..K under MTCD and MTSD, at p = 0.1 and p = 1.0.
//
// Paper shape: MTSD is flat (80 online / 60 download per file, all
// classes). Under MTCD the per-file online time falls with the class
// index (multi-file peers amortise the single seeding residence); at low
// p class-1 peers do worse than MTSD while high classes do better; at
// p = 1 every class does worse than MTSD. The grid and claim checks live
// in the `btmf_tool reproduce` registry; see fig_common.h.
#include "fig_common.h"

int main(int argc, char** argv) {
  return btmf::bench::run_main(argc, argv, [](int n, char** args) {
    return btmf::bench::run_figure_bench("fig3_per_class", "fig3", n,
                                         args);
  });
}
