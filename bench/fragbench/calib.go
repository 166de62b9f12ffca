package main

// The host this benchmark was built on is a virtual machine with 2 vCPUs on
// a shared Xeon, and its speed drifts over minutes in two ways:
//
//   - Steal: the hypervisor takes the vCPUs away, 1% to 40% of the time
//     depending on the minute. It stretches wall time but not the CPU time
//     the guest accounts to a thread.
//   - Contention: other tenants share the cores and caches, so the same
//     work takes 10-40% more CPU time in one minute than in the next.
//
// Both outlast a run, so neither longer runs nor robust statistics remove
// them. fragbench therefore measures what each op costs in process CPU time
// (all threads), which drops the steal, and measures the host's speed as it
// goes, by the thread CPU time of a fixed calibration kernel run in short
// bursts between ops. Every end-to-end time is reported scaled to the speed
// at which that kernel takes refKernelMs: a contended host stretches the
// ops and the kernel alike, and that cancels; a slower program stretches
// only the ops.
//
// The kernel mixes the work the program's ops are made of: sorting,
// hashing into a map and chasing indexes through a table the size of a
// core's L2 cache. Per second of a 90-second run, the ratio of the ops'
// median to each of these varied less than half as much as the ops' median
// did; an ALU loop or a walk through a 32 MiB table tracked the drift
// poorly.
// The kernel allocates nothing and stores no pointers, so the program's
// garbage collector neither slows it (no assists, no write barriers) nor
// is started by it, and its median came out the same, within a few
// percent, on all four workloads.

import (
	"math/rand"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// refKernelMs is the calibration kernel's median CPU time on the reference
// host at a quiet time. Scaled times read as CPU time on that host.
const refKernelMs = 0.30

const (
	calBurst = 16 // kernel runs per burst; the first of a burst runs with cold caches
	calShare = 10 // calibration wall time is kept at 1/calShare of the timed op time
)

type calibrator struct {
	vals  []uint64
	buf   []uint64
	m     map[uint64]uint32
	cycle []int32 // a single cycle through 64Ki entries (256 KiB)
	sink  uint64

	samples []float64     // kernel CPU times, ms
	spent   time.Duration // wall time spent calibrating
}

func newCalibrator() *calibrator {
	rng := rand.New(rand.NewSource(1))
	c := &calibrator{
		vals:  make([]uint64, 4096),
		buf:   make([]uint64, 2048),
		m:     make(map[uint64]uint32, 2048),
		cycle: make([]int32, 1<<16),
	}
	for i := range c.vals {
		c.vals[i] = rng.Uint64()
	}
	perm := rng.Perm(len(c.cycle))
	for i, p := range perm {
		c.cycle[p] = int32(perm[(i+1)%len(perm)])
	}
	return c
}

// kernel is one unit of calibration work; off varies its inputs.
func (c *calibrator) kernel(off int) uint64 {
	for i := range c.buf {
		c.buf[i] = c.vals[(i*13+off)&4095]
	}
	slices.Sort(c.buf)
	clear(c.m)
	for i := 0; i < 2048; i++ {
		c.m[c.vals[(i*7+off)&4095]] += uint32(i)
	}
	p := int32(off & 0xffff)
	for i := 0; i < 20000; i++ {
		p = c.cycle[p]
	}
	return uint64(p) + uint64(len(c.m)) + c.buf[0]
}

// burst runs the kernel calBurst times on one OS thread, whose CPU clock
// times each run.
func (c *calibrator) burst() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now()
	for k := 0; k < calBurst; k++ {
		t := threadCPU()
		c.sink += c.kernel(len(c.samples))
		c.samples = append(c.samples, millis(threadCPU()-t))
	}
	c.spent += time.Since(start)
}

// keepUp runs bursts until calibration has taken its share of busy, the
// timed op wall time so far, and at least one burst has run.
func (c *calibrator) keepUp(busy time.Duration) {
	for len(c.samples) == 0 || c.spent*calShare < busy {
		c.burst()
	}
}

// medianMs is the kernel's median CPU time over the run.
func (c *calibrator) medianMs() float64 { return median(c.samples) }

// scale is the factor that turns a CPU time measured in this run into one
// at the reference speed. It is one factor for the whole run: scaling each
// op by the bursts next to it made the ops' times within a run vary more,
// not less.
func (c *calibrator) scale() float64 { return refKernelMs / c.medianMs() }

// The CPU clocks of clock_gettime(2). The CPU time the kernel accounts to a
// thread or process leaves out the time the hypervisor stole.
const (
	clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID: every thread of the process
	clockThreadCPUTime  = 3 // CLOCK_THREAD_CPUTIME_ID: the calling thread
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// processCPU is the CPU time the process has used since it started.
func processCPU() time.Duration { return cpuClock(clockProcessCPUTime) }

// threadCPU is the CPU time the calling OS thread has used.
func threadCPU() time.Duration { return cpuClock(clockThreadCPUTime) }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
