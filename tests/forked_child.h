/**
 * @file
 * A forked child process for tests of the stores' cross-process locks.
 *
 * The result cache, trace store and checkpoint store are shared by
 * every process run in one directory, so their single-flight guarantee
 * rests on an advisory flock.  Threads of one process never exercise
 * that lock (the in-process condition variable answers first); a real
 * second process does.  ForkedChild runs a test-supplied body in a
 * fork()ed child and gives the two sides a handshake:
 *
 *   child:  signalReady()  — "I own the key now"
 *   parent: awaitReady()   — blocks until then (false: child died)
 *   parent: go()           — lets the child continue
 *   child:  awaitGo()      — blocks until then
 *
 * The child runs only the body and leaves through _exit() with its
 * return value, so no gtest state is touched after the fork.  Fork
 * before starting any thread in the test.
 */
#ifndef RNR_TESTS_FORKED_CHILD_H
#define RNR_TESTS_FORKED_CHILD_H

#include <csignal>
#include <functional>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

namespace rnr::test {

class ForkedChild
{
  public:
    /** Forks and runs @p body in the child; its return value becomes
     *  the child's exit code (an exception exits 99). */
    explicit ForkedChild(const std::function<int(ForkedChild &)> &body)
    {
        if (::pipe(to_parent_) != 0 || ::pipe(to_child_) != 0)
            return;
        pid_ = ::fork();
        if (pid_ == 0) {
            ::close(to_parent_[0]);
            ::close(to_child_[1]);
            int code = 99;
            try {
                code = body(*this);
            } catch (...) {
            }
            ::_exit(code);
        }
        ::close(to_parent_[1]);
        ::close(to_child_[0]);
    }

    ForkedChild(const ForkedChild &) = delete;
    ForkedChild &operator=(const ForkedChild &) = delete;

    ~ForkedChild()
    {
        if (pid_ > 0 && !reaped_) {
            kill();
            wait();
        }
        ::close(to_parent_[0]);
        ::close(to_child_[1]);
    }

    /** False when fork() or pipe() failed. */
    bool started() const { return pid_ > 0; }

    // -- child side --
    void signalReady() { writeByte(to_parent_[1]); }
    bool awaitGo() { return readByte(to_child_[0]); }

    // -- parent side --
    bool awaitReady() { return readByte(to_parent_[0]); }
    void go() { writeByte(to_child_[1]); }
    void kill() { ::kill(pid_, SIGKILL); }

    /** Reaps the child: its exit code, or 128 + the killing signal. */
    int
    wait()
    {
        int status = 0;
        if (::waitpid(pid_, &status, 0) != pid_)
            return -1;
        reaped_ = true;
        if (WIFSIGNALED(status))
            return 128 + WTERMSIG(status);
        return WEXITSTATUS(status);
    }

  private:
    static void
    writeByte(int fd)
    {
        const char c = 1;
        [[maybe_unused]] ssize_t n = ::write(fd, &c, 1);
    }

    static bool
    readByte(int fd)
    {
        char c;
        return ::read(fd, &c, 1) == 1;
    }

    pid_t pid_ = -1;
    bool reaped_ = false;
    int to_parent_[2] = {-1, -1};
    int to_child_[2] = {-1, -1};
};

} // namespace rnr::test

#endif // RNR_TESTS_FORKED_CHILD_H
