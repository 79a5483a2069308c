/*
 * A PC-sampling profiler to preload into any process (docs/PERF.md §6).
 *
 *   gcc -O2 -shared -fPIC -o pcsample.so tools/pcsample.c -lrt
 *   LD_PRELOAD=$PWD/pcsample.so PCSAMPLE_OUT=/tmp/prof/s <command>
 *   python3 tools/pcsample_report.py <binary> /tmp/prof/s.*
 *
 * A timer on the monotonic clock raises SIGPROF PCSAMPLE_HZ times a
 * second (default 10000); the handler stores the interrupted program
 * counter.  (A CPU-time clock would skip time spent blocked, but its
 * timers fire only at the kernel tick, a few hundred times a second.)
 * So profile CPU-bound runs: a blocked process's samples land in libc.
 * At exit the process writes <PCSAMPLE_OUT>.<pid>: its command line
 * after a '#', then one hex offset per sample, relative to the main
 * executable's load address, which is what addr2line takes for a PIE.
 * Samples in shared libraries fall outside the executable and resolve
 * to "??".  One process-wide buffer, so profile single-threaded runs.
 */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

static uintptr_t *buf;
static volatile size_t n;
static const size_t cap = 1u << 24;
static timer_t timer;

static void
on_prof(int sig, siginfo_t *si, void *uc)
{
    (void)sig;
    (void)si;
    if (n < cap)
        buf[n++] = (uintptr_t)((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
}

static int
first_object(struct dl_phdr_info *info, size_t size, void *out)
{
    (void)size;
    *(uintptr_t *)out = info->dlpi_addr;
    return 1; /* the first object is the main program */
}

__attribute__((constructor)) static void
start(void)
{
    const char *hz_s = getenv("PCSAMPLE_HZ");
    long hz = hz_s ? atol(hz_s) : 10000;
    buf = malloc(cap * sizeof *buf);
    struct sigaction sa = {0};
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, 0);
    struct sigevent sev = {0};
    sev.sigev_notify = SIGEV_SIGNAL;
    sev.sigev_signo = SIGPROF;
    timer_create(CLOCK_MONOTONIC, &sev, &timer);
    struct itimerspec its = {{0, 1000000000L / hz}, {0, 1000000000L / hz}};
    timer_settime(timer, 0, &its, 0);
}

__attribute__((destructor)) static void
stop(void)
{
    timer_delete(timer);
    uintptr_t base = 0;
    dl_iterate_phdr(first_object, &base);
    const char *prefix = getenv("PCSAMPLE_OUT");
    char path[4096];
    snprintf(path, sizeof path, "%s.%d", prefix ? prefix : "pcsample",
             (int)getpid());
    FILE *f = fopen(path, "w");
    if (!f)
        return;
    /* First line: the command, so runs can be told apart. */
    FILE *c = fopen("/proc/self/cmdline", "r");
    fputs("#", f);
    if (c) {
        int ch;
        while ((ch = fgetc(c)) != EOF)
            fputc(ch ? ch : ' ', f);
        fclose(c);
    }
    fputc('\n', f);
    for (size_t i = 0; i < n; ++i)
        fprintf(f, "%lx\n", (unsigned long)(buf[i] - base));
    fclose(f);
}
