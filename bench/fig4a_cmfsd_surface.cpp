// Reproduces Figure 4(a): the average online time per file under CMFSD
// over the (file correlation p, bandwidth ratio rho) grid.
//
// Paper shape: for every p the surface is minimised at rho = 0; the
// improvement over rho = 1 (which equals MFCD) grows with p. Each cell is
// an independent 65-state ODE steady-state solve, fanned out over idle
// cores (and cached with --cache-dir). The grid and claim checks
// live in the `btmf_tool reproduce` registry; see fig_common.h.
#include "fig_common.h"

int main(int argc, char** argv) {
  return btmf::bench::run_main(argc, argv, [](int n, char** args) {
    return btmf::bench::run_figure_bench("fig4a_cmfsd_surface", "fig4a", n,
                                         args);
  });
}
