/* wait4(2) for the end-to-end bench.  It is the one call that reports a
   reaped child's peak resident set (ru_maxrss), which OCaml's Unix
   library does not expose. */

#define _DEFAULT_SOURCE
#include <errno.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* Block until [pid] ends; return (exit code, terminating signal, peak
   RSS in KiB).  The code is 0 when a signal ended the child.  When a
   signal interrupts the wait the code is -1, so the caller can let its
   OCaml handler run and wait again. */
value msoc_bench_wait4(value v_pid)
{
  CAMLparam1(v_pid);
  CAMLlocal1(result);
  pid_t pid = Int_val(v_pid);
  pid_t r;
  int status = 0;
  int err = 0;
  struct rusage ru;

  memset(&ru, 0, sizeof ru);
  caml_enter_blocking_section();
  r = wait4(pid, &status, 0, &ru);
  err = errno;
  caml_leave_blocking_section();
  if (r < 0 && err != EINTR) caml_failwith(strerror(err));

  result = caml_alloc_tuple(3);
  if (r < 0) {
    Store_field(result, 0, Val_int(-1));
    Store_field(result, 1, Val_int(0));
    Store_field(result, 2, Val_long(0));
  } else {
    Store_field(result, 0, Val_int(WIFEXITED(status) ? WEXITSTATUS(status) : 0));
    Store_field(result, 1, Val_int(WIFSIGNALED(status) ? WTERMSIG(status) : 0));
    Store_field(result, 2, Val_long(ru.ru_maxrss));
  }
  CAMLreturn(result);
}
