// Reproduces Figure 2: average online time per file vs file correlation p
// under MTCD and MTSD (K = 10, mu = 0.02, eta = 0.5, gamma = 0.05).
//
// Paper shape: MTSD is flat at 80; MTCD matches it at p -> 0 and degrades
// monotonically to 98 at p = 1 (~22% worse). The grid and claim checks
// live in the `btmf_tool reproduce` registry; see fig_common.h.
#include "fig_common.h"

int main(int argc, char** argv) {
  return btmf::bench::run_main(argc, argv, [](int n, char** args) {
    return btmf::bench::run_figure_bench("fig2_mtcd_vs_mtsd", "fig2", n,
                                         args);
  });
}
