package main

import (
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The 2-vCPU VM the benchmark was tuned on changes speed under it: a
// fixed single-threaded loop ran at two speeds 1.7x apart, each held for
// seconds to over a minute, while the VM reported no steal time. The
// runs of one commit therefore spread by 20-30% in wall-clock time,
// more than any useful regression bound. Every end-to-end timing is
// reported at reference host speed instead: a probe times a fixed kernel
// every probeEvery during the run, and each wall-clock span is divided
// by the host slowdown (the median probe time around the span over
// refProbeUs). On a quiet host of the reference speed the two agree.
//
// The probe reads its thread's CPU clock, not the wall clock, so time
// the probe's thread spends descheduled behind the benchmark's own
// threads does not count as a slower host; a slower core does, because
// the kernel takes more CPU time on it. There is one probe thread per
// CPU, pinned to it: the vCPUs slow down independently, and an unpinned
// probe would mostly time whichever one the benchmark left idle.
const (
	probeEvery = 10 * time.Millisecond
	// refProbeUs is probeKernel's CPU time on the reference host when
	// it runs at its fast speed (2-vCPU Intel Xeon VM).
	refProbeUs = 30.0
	// probeSpan is the shortest interval whose slowdown is read: shorter
	// spans borrow the probes of the probeSpan around their midpoint.
	probeSpan = time.Second
)

// probeKernel is the fixed work the probe times: branchy integer
// arithmetic on a table in L1, about refProbeUs long at reference speed.
func probeKernel(x uint64) uint64 {
	var tab [64]uint64
	for i := 0; i < 4000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&1 == 0 {
			tab[x&63] += x
		} else {
			x += tab[(x>>6)&63]
		}
	}
	return x
}

// threadCPU is the calling thread's CPU time; ok is false when the
// clock cannot be read.
func threadCPU() (d time.Duration, ok bool) {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano()), errno == 0
}

// pinThread binds the calling OS thread to one CPU. A failure leaves it
// unpinned, which only weakens the probe.
func pinThread(cpu int) {
	var mask [16]uint64 // a cpu_set_t of 1024 CPUs
	if cpu >= 64*len(mask) {
		return
	}
	mask[cpu/64] = 1 << (cpu % 64)
	syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
}

type probeSample struct {
	at time.Time
	us float64 // probeKernel's CPU time
}

// hostProbe samples the host's speed until stop.
type hostProbe struct {
	done    chan struct{}
	wg      sync.WaitGroup
	perCPU  [][]probeSample // each written only by its CPU's probe
	samples []probeSample   // all of them sorted by time, after stop
	all     float64         // slowdown over every sample
}

func startProbe() *hostProbe {
	p := &hostProbe{done: make(chan struct{}), perCPU: make([][]probeSample, runtime.NumCPU())}
	for cpu := range p.perCPU {
		p.wg.Add(1)
		go p.run(cpu)
	}
	return p
}

// run probes one CPU. Its goroutine returns still locked to its pinned
// thread, so the runtime retires the thread instead of reusing it with
// the pinning.
func (p *hostProbe) run(cpu int) {
	defer p.wg.Done()
	runtime.LockOSThread()
	pinThread(cpu)
	t := time.NewTicker(probeEvery)
	defer t.Stop()
	ss := make([]probeSample, 0, 8192)
	defer func() { p.perCPU[cpu] = ss }()
	x := uint64(cpu + 1)
	for {
		select {
		case <-p.done:
			return
		case <-t.C:
		}
		at := time.Now()
		c0, ok0 := threadCPU()
		x = probeKernel(x) | 1
		c1, ok1 := threadCPU()
		if ok0 && ok1 {
			ss = append(ss, probeSample{at, float64(c1-c0) / 1e3})
		}
	}
}

// stop ends the sampling and waits for the probe goroutines.
func (p *hostProbe) stop() {
	close(p.done)
	p.wg.Wait()
	for _, ss := range p.perCPU {
		p.samples = append(p.samples, ss...)
	}
	sort.Slice(p.samples, func(i, j int) bool { return p.samples[i].at.Before(p.samples[j].at) })
	p.all = p.slowdownOf(p.samples)
}

// slowdown is the host slowdown over [a, b], widened to probeSpan about
// its midpoint when shorter; the whole run's when no probe fell in it.
func (p *hostProbe) slowdown(a, b time.Time) float64 {
	if b.Sub(a) < probeSpan {
		mid := a.Add(b.Sub(a) / 2)
		a, b = mid.Add(-probeSpan/2), mid.Add(probeSpan/2)
	}
	i := sort.Search(len(p.samples), func(i int) bool { return !p.samples[i].at.Before(a) })
	j := sort.Search(len(p.samples), func(i int) bool { return !p.samples[i].at.Before(b) })
	if j-i == 0 {
		return p.all
	}
	return p.slowdownOf(p.samples[i:j])
}

func (p *hostProbe) slowdownOf(ss []probeSample) float64 {
	if len(ss) == 0 {
		return 1
	}
	us := make([]float64, len(ss))
	for i, s := range ss {
		us[i] = s.us
	}
	return percentile(us, 0.5) / refProbeUs
}
