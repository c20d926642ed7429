/* The CPU sampler `scripts/cpu_profile.sh` preloads into a benchmark run
 * (see that script for how to use it and for its limits).
 *
 * A CLOCK_PROCESS_CPUTIME_ID timer raises SIGPROF on the thread that is
 * running; the handler records its program counter and walks its frame
 * pointers, checking with mincore() that a frame is mapped before reading
 * it. At exit the process writes its memory map and its stacks, as hex
 * addresses, to $CPU_PROFILE_OUT/samples.<pid>. x86-64 Linux only. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/mman.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES 100000
#define MAX_DEPTH 48
/* Touched only as samples arrive, so untaken slots cost no memory. */
static uintptr_t stacks[MAX_SAMPLES][MAX_DEPTH];
static unsigned char depths[MAX_SAMPLES];
static unsigned long taken;
static timer_t timer;
static uintptr_t page;

static int mapped(uintptr_t addr) {
    unsigned char v;
    return mincore((void *)(addr & ~(page - 1)), 1, &v) == 0;
}

static void on_tick(int sig, siginfo_t *si, void *ctx) {
    (void)sig; (void)si;
    unsigned long n = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (n >= MAX_SAMPLES) return;
    greg_t *regs = ((ucontext_t *)ctx)->uc_mcontext.gregs;
    uintptr_t *frames = stacks[n], fp = regs[REG_RBP];
    int d = 0;
    frames[d++] = regs[REG_RIP];
    /* A frame is [saved fp, return address]; callers sit above callees. */
    while (d < MAX_DEPTH && fp % 8 == 0 && mapped(fp) && mapped(fp + 8)) {
        uintptr_t next = ((uintptr_t *)fp)[0], ret = ((uintptr_t *)fp)[1];
        if (ret == 0) break;
        frames[d++] = ret - 1; /* inside the call instruction */
        if (next <= fp || next - fp > (1 << 20)) break;
        fp = next;
    }
    depths[n] = d;
}

__attribute__((constructor)) static void start(void) {
    page = sysconf(_SC_PAGESIZE);
    struct sigaction sa = {0};
    sa.sa_sigaction = on_tick;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct sigevent ev = {0};
    ev.sigev_notify = SIGEV_SIGNAL;
    ev.sigev_signo = SIGPROF;
    struct itimerspec every = {{0, 1000000}, {0, 1000000}};
    if (timer_create(CLOCK_PROCESS_CPUTIME_ID, &ev, &timer) == 0)
        timer_settime(timer, 0, &every, NULL);
}

__attribute__((destructor)) static void finish(void) {
    timer_delete(timer);
    char path[4096], line[4096];
    snprintf(path, sizeof path, "%s/samples.%d", getenv("CPU_PROFILE_OUT"), (int)getpid());
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    while (fgets(line, sizeof line, maps)) fprintf(out, "map %s", line);
    unsigned long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (unsigned long i = 0; i < n; i++) {
        fputs("stack", out);
        for (int d = 0; d < depths[i]; d++) fprintf(out, " %lx", (unsigned long)stacks[i][d]);
        fputc('\n', out);
    }
    fclose(maps);
    fclose(out);
}
