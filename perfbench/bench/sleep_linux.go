package bench

import (
	"syscall"
	"time"
	"unsafe"
)

// sleepFor blocks the calling thread for d with nanosleep(2), after
// lowering the thread's timer slack to 1 µs so it wakes within tens of
// microseconds of the due time. The runtime's own timers round the
// sub-millisecond sleeps of an otherwise idle process up to a millisecond.
//
// Both calls are raw: the goroutine keeps its P while it sleeps, so the
// scheduler never has to hand the P back after the sleep. A sender sleeps
// only while its connection is idle, so nothing it owns waits meanwhile.
func sleepFor(d time.Duration) {
	const prSetTimerSlack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0) // best effort: the default slack is 50 µs
	ts := syscall.NsecToTimespec(int64(d))
	_, _, _ = syscall.RawSyscall(syscall.SYS_NANOSLEEP, uintptr(unsafe.Pointer(&ts)), 0, 0) // on EINTR the caller re-reads the clock and sleeps again
}
