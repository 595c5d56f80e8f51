/* SIGPROF sampler: every ITIMER_PROF tick (process CPU time) while
   recording is on, record the interrupted instruction pointer into a
   static buffer. The handler touches nothing but that buffer, an atomic
   counter and the recording flag, so it is safe to run in any thread at
   any point, OCaml code included.

   The timer runs for the whole profile and recording is switched on
   only around the code being profiled. Stopping the timer outside that
   code instead, and restarting it from a full interval, would let
   almost no tick fire in runs shorter than the kernel's tick; and the
   remaining interval that getitimer reports is no way to resume it,
   since it reads up to a tick long, so a saved-and-restored timer can
   be pushed back past its expiry on every restart. */

#define _GNU_SOURCE
#include <signal.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>

/* The interrupted pc; elsewhere every sample reads 0 and attributes to
   nothing. */
#if defined(__linux__) && defined(__x86_64__)
#define PC(uc) ((uintnat)(uc)->uc_mcontext.gregs[REG_RIP])
#elif defined(__linux__) && defined(__aarch64__)
#define PC(uc) ((uintnat)(uc)->uc_mcontext.pc)
#else
#define PC(uc) ((uintnat)0)
#endif

#define CAP (1 << 20)
static uintnat samples[CAP];
static uintnat count;
static volatile int recording;

static void on_prof(int sig, siginfo_t *si, void *ctx)
{
  (void)sig;
  (void)si;
  if (!recording) return;
  uintnat pc = PC((ucontext_t *)ctx);
  uintnat i = __atomic_fetch_add(&count, 1, __ATOMIC_RELAXED);
  if (i < CAP) samples[i] = pc;
}

value hostprof_install(value unit)
{
  struct sigaction sa;
  (void)unit;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  return Val_unit;
}

/* Tick every [usec] microseconds of process CPU time; 0 stops. */
value hostprof_timer(value usec)
{
  struct itimerval it;
  it.it_interval.tv_sec = Long_val(usec) / 1000000;
  it.it_interval.tv_usec = Long_val(usec) % 1000000;
  it.it_value = it.it_interval;
  setitimer(ITIMER_PROF, &it, NULL);
  return Val_unit;
}

/* Keep (true) or drop (false) the ticks that follow. */
value hostprof_record(value on)
{
  recording = Bool_val(on);
  return Val_unit;
}

/* The run-time address of a symbol [nm] also lists: the difference is
   the load bias of a position-independent executable. */
value hostprof_anchor(value unit) { (void)unit; return Val_long((uintnat)&hostprof_install); }

value hostprof_samples(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(a);
  uintnat n = count < CAP ? count : CAP;
  a = caml_alloc(n, 0);
  for (uintnat i = 0; i < n; i++) Store_field(a, i, Val_long(samples[i]));
  CAMLreturn(a);
}
