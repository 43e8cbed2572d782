//===- perfbench/spawn.cpp - depflow-bench op launcher ---------------------===//
//
// Part of the depflow project: a reproduction of "Dependence-Based Program
// Analysis" (Johnson & Pingali, PLDI 1993).
//
// Runs one depflow-bench op and reports its cost:
//
//   depflow-perfbench-spawn TIMEOUT_S OUT ERR PROGRAM [ARGS...]
//
// forks, runs PROGRAM with stdin from /dev/null and stdout/stderr written to
// the files OUT and ERR, waits for it, and prints one line:
//
//   WALL_NS EXIT MAXRSS_KIB TIMED_OUT
//
// WALL_NS runs from just before fork() to the return of wait4(). EXIT is
// the exit code, or minus the signal that ended the child. A child still
// running after TIMEOUT_S seconds is killed (TIMED_OUT 1); a child whose
// launcher dies is killed too.
//
// Why a launcher of its own: Linux keeps ru_maxrss across execve(), so a
// child started from the Python driver begins with the driver's resident
// set, which is larger than depflow-opt's whole peak. Forked from this
// small process, the child's ru_maxrss is depflow-opt's own.
//
// Exit codes: 0 the op ran (whatever its own exit), 2 usage or set-up error.
//
//===----------------------------------------------------------------------===//

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

namespace {

volatile pid_t Child = -1;
volatile sig_atomic_t TimedOut = 0;

void onAlarm(int) {
  TimedOut = 1;
  kill(Child, SIGKILL);
}

long long nowNs() {
  timespec T;
  clock_gettime(CLOCK_MONOTONIC, &T);
  return T.tv_sec * 1000000000LL + T.tv_nsec;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 5) {
    std::fprintf(stderr, "usage: depflow-perfbench-spawn TIMEOUT_S OUT ERR "
                         "PROGRAM [ARGS...]\n");
    return 2;
  }
  const double Timeout = std::strtod(Argv[1], nullptr);
  const int Flags = O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC;
  const int In = open("/dev/null", O_RDONLY | O_CLOEXEC);
  const int Out = open(Argv[2], Flags, 0644);
  const int Err = open(Argv[3], Flags, 0644);
  if (In < 0 || Out < 0 || Err < 0 || !(Timeout > 0)) {
    std::perror("depflow-perfbench-spawn");
    return 2;
  }
  struct sigaction SA = {};
  SA.sa_handler = onAlarm;
  sigaction(SIGALRM, &SA, nullptr);

  const pid_t Parent = getpid();
  const long long T0 = nowNs();
  const pid_t Pid = fork();
  if (Pid < 0) {
    std::perror("depflow-perfbench-spawn: fork");
    return 2;
  }
  if (Pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != Parent)
      _exit(127);
    dup2(In, 0);
    dup2(Out, 1);
    dup2(Err, 2);
    execv(Argv[4], Argv + 4);
    _exit(127);
  }
  Child = Pid;
  itimerval Timer = {};
  Timer.it_value.tv_sec = time_t(Timeout);
  Timer.it_value.tv_usec = suseconds_t((Timeout - double(time_t(Timeout))) * 1e6);
  setitimer(ITIMER_REAL, &Timer, nullptr);

  int Status = 0;
  rusage RU = {};
  pid_t R;
  while ((R = wait4(Pid, &Status, 0, &RU)) < 0 && errno == EINTR) {
  }
  const long long T1 = nowNs();
  Timer = {};
  setitimer(ITIMER_REAL, &Timer, nullptr);
  if (R < 0) {
    std::perror("depflow-perfbench-spawn: wait4");
    return 2;
  }
  const int Exit = WIFEXITED(Status) ? WEXITSTATUS(Status) : -WTERMSIG(Status);
  std::printf("%lld %d %ld %d\n", T1 - T0, Exit, RU.ru_maxrss, int(TimedOut));
  return 0;
}
