/**
 * @file
 * Fig 15 (extension): RnR accuracy and timeliness under context-switch
 * pressure.  Several ASID-tagged tenants round-robin over one core's
 * RnR engine; each row compares the paper's design (state saved and
 * restored on every switch, Section IV-C) against a strawman that
 * drops RnR state at each switch, across scheduling quanta.
 */
#include <cstdio>

#include "core/switch_schedule.h"
#include "core/rnr_prefetcher.h"

using namespace rnr;

namespace {

void
printRow(unsigned quantum, const char *variant,
         const SwitchStormResult &r)
{
    const double total =
        static_cast<double>(r.pf_ontime + r.pf_early + r.pf_late +
                            r.pf_out_of_window);
    const double ontime_pct =
        total > 0 ? 100.0 * static_cast<double>(r.pf_ontime) / total : 0;
    std::printf("%-8u %-12s %9.1f%% %9.1f%% %9.1f%% %10llu %10llu\n",
                quantum, variant, 100.0 * r.accuracy(),
                100.0 * r.hitRate(), ontime_pct,
                static_cast<unsigned long long>(r.pf_issued),
                static_cast<unsigned long long>(r.switches));
}

} // namespace

int
main()
{
    std::printf("== Fig 15: RnR under context-switch storms ==\n");
    std::printf("4 tenants, 192 recorded misses each; per-switch "
                "architectural state: %llu bytes\n\n",
                static_cast<unsigned long long>(
                    RnrPrefetcher::contextSwitchBytes()));
    std::printf("%-8s %-12s %10s %10s %10s %10s %10s\n", "quantum",
                "state", "accuracy", "hit rate", "on-time", "issued",
                "switches");

    for (unsigned quantum : {16u, 32u, 64u, 128u, 192u}) {
        SwitchStormConfig cfg;
        cfg.quantum = quantum;
        cfg.seq_len = 192;
        cfg.save_restore = true;
        printRow(quantum, "save/restore", runSwitchStorm(cfg));
        cfg.save_restore = false;
        printRow(quantum, "lost", runSwitchStorm(cfg));
    }

    std::printf("\nPaper reference: RnR state is small enough to travel "
                "with the thread context (Section IV-C); dropping it "
                "restarts every replay at its head, so accuracy and "
                "coverage collapse as the quantum shrinks.\n");
    return 0;
}
