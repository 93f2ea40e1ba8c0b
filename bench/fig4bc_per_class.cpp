// Reproduces Figures 4(b) and 4(c): per-class online and download time
// per file under CMFSD (rho = 0.1 and 0.9) and MFCD, at p = 0.9 (b) and
// p = 0.1 (c).
//
// Paper shape: CMFSD introduces class unfairness — single-file peers
// download faster per file than multi-file peers — most visibly at large
// rho and low p; at p = 0.9 with rho = 0.1 every class clearly beats
// MFCD and the unfairness is mild. The grid and claim checks live in the
// `btmf_tool reproduce` registry; see fig_common.h.
#include "fig_common.h"

int main(int argc, char** argv) {
  return btmf::bench::run_main(argc, argv, [](int n, char** args) {
    return btmf::bench::run_figure_bench("fig4bc_per_class", "fig4bc", n,
                                         args);
  });
}
