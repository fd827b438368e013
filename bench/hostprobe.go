package main

import (
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is a few vCPUs of a shared machine, and
// what the neighbours do to its caches and memory moves every timed figure:
// one process, one seed, adhoc-plain in 35-second windows read 26 to 44
// ops/s within ten minutes, with no steal time reported. No statistic inside
// a run takes that out, so the run measures it instead.
//
// hostProbe samples the speed of the memory system while the measured code
// runs. Every probeEvery a goroutine
//
//   - follows probeSteps links of a random single-cycle permutation over
//     probeBytes: every step a dependent cache and TLB miss, which is what a
//     miss costs (ball construction and the collector's mark phase are made
//     of them), and
//   - reads the first scanBytes of it in order: how many misses the memory
//     system overlaps.
//
// Time per op of the workloads goes with the product of the two (README,
// "Steadiness": correlation 0.9 to 0.98 over windows of 24 s and more,
// whether the hour is quiet or the box runs at half speed), so the timed
// figures are divided by
//
//	slowdown() = ns per step / chaseNominalNS × µs per scan / scanNominalUS
//
// each a mean over the phase's samples without the tenth at either end: a
// sample that the host interrupts reads ten times too long and says nothing
// about the other 98 % of the time. That states the figures at the speed of a
// quiet hour on the builder's host; what the clients' clocks read and the
// factor itself are printed beside them.
//
// The permutation lives outside the Go heap (anonymous mmap): 64 MB more
// live heap would triple the collector's pacing target and change what is
// being measured. A sample takes 4 ms in every 100: 2 % of the box.
const (
	probeBytes     = 64 << 20
	probeSteps     = 10000
	scanBytes      = 8 << 20
	probeEvery     = 100 * time.Millisecond
	chaseNominalNS = 230.0  // ns per step in a quiet hour, both load clients running
	scanNominalUS  = 1750.0 // µs per scan, same
)

type hostProbe struct {
	next []uint32 // next[i] is the successor of i on the cycle
	at   uint32
	sink uint32

	// Written by the sampling goroutine only, read once it has ended.
	chaseNS, scanUS []float64
	stop, done      chan struct{}
}

var (
	probeOnce sync.Once
	probe     *hostProbe
	probeErr  error
)

// theProbe builds the process's one probe on first use (≈0.3 s).
func theProbe() (*hostProbe, error) {
	probeOnce.Do(func() {
		mem, err := syscall.Mmap(-1, 0, probeBytes, syscall.PROT_READ|syscall.PROT_WRITE,
			syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			probeErr = err
			return
		}
		next := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), probeBytes/4)
		// Sattolo's shuffle of the identity: one cycle through every slot,
		// so a walk never falls into a short, cache-resident loop.
		for i := range next {
			next[i] = uint32(i)
		}
		x := uint64(88172645463325252)
		for i := len(next) - 1; i > 0; i-- {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			j := int(x % uint64(i))
			next[i], next[j] = next[j], next[i]
		}
		probe = &hostProbe{next: next}
	})
	return probe, probeErr
}

// sample takes one reading of each kind.
func (p *hostProbe) sample() {
	at := p.at
	t := time.Now()
	for i := 0; i < probeSteps; i++ {
		at = p.next[at]
	}
	chase := time.Since(t)
	p.at = at

	var sum uint32
	t = time.Now()
	for _, v := range p.next[:scanBytes/4] {
		sum += v
	}
	scan := time.Since(t)
	p.sink += sum

	p.chaseNS = append(p.chaseNS, float64(chase.Nanoseconds())/probeSteps)
	p.scanUS = append(p.scanUS, float64(scan.Nanoseconds())/1e3)
}

// start begins sampling; slowdown ends it.
func (p *hostProbe) start() {
	p.chaseNS, p.scanUS = p.chaseNS[:0], p.scanUS[:0]
	p.stop, p.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(p.done)
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				p.sample()
			}
		}
	}()
}

// slowdown stops the sampling and returns how much slower than nominal the
// host's memory system ran since start, and over how many samples.
func (p *hostProbe) slowdown() (float64, int) {
	close(p.stop)
	<-p.done
	if len(p.chaseNS) == 0 { // a phase shorter than one tick: -smoke on a fast set-up
		p.sample()
	}
	return trimmedMean(p.chaseNS) / chaseNominalNS * trimmedMean(p.scanUS) / scanNominalUS, len(p.chaseNS)
}

// trimmedMean is the mean of xs without the tenth at either end.
func trimmedMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 10
	return mean(s[k : len(s)-k])
}
