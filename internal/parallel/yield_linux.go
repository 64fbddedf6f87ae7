package parallel

import "syscall"

// osYield gives the rest of the calling thread's time slice to another
// runnable thread on its core, and returns at once when there is none.
func osYield() {
	_, _, _ = syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) // sched_yield(2) cannot fail
}
