package main

import (
	"crypto/sha1"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

// calibration measures how fast the machine is running right now, with a
// fixed CPU kernel the runner executes between operations. The shared VMs
// the benchmark runs on change speed by up to a quarter for seconds to
// minutes at a time (a pure CPU loop shows it; see README.md), which no
// run length within the time budget averages out. Every time the runner
// reports is therefore scaled by reference/measured kernel time taken over
// the same stretch of the run: it reads as it would on a machine that runs
// the kernel in calibReference, which on the VM class this repository is
// developed on is the undisturbed state.
type calibration struct {
	scratch []calibScratch // one per core
	mu      sync.Mutex
	points  []calibPoint
}

type calibPoint struct {
	at     time.Time
	kernel time.Duration
}

type calibScratch struct {
	buf  [64 << 10]byte
	keys [4096]uint64
	// big is larger than a core's private caches, so copying one half of
	// it onto the other runs at the speed of the shared cache and memory.
	// It is mapped outside the Go heap: 8 MiB of live heap in the runner
	// would halve the number of garbage collections the engine sees.
	big []byte
}

const calibBigBytes = 4 << 20

const (
	// calibReference is the kernel's wall time on an undisturbed machine.
	calibReference = 480 * time.Microsecond
	// calibEvery is the least time between two calibration points.
	calibEvery = 250 * time.Millisecond
	// Each point runs the kernel calibTries times and keeps the fastest:
	// the engine's own background work must not read as a slow machine.
	calibTries = 5
)

func newCalibration() (*calibration, error) {
	c := &calibration{scratch: make([]calibScratch, runtime.GOMAXPROCS(0))}
	for i := range c.scratch {
		big, err := syscall.Mmap(-1, 0, calibBigBytes,
			syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return nil, fmt.Errorf("map calibration scratch: %w", err)
		}
		c.scratch[i].big = big
	}
	return c, nil
}

// work is the kernel's share of one core: pseudo-random keys, a sort of
// them, a SHA-1 over 64 KiB and a 2 MiB copy — the compare-, hash- and
// memory-bound loops the engine spends its time in. It allocates nothing.
func (s *calibScratch) work() {
	x := uint64(88172645463325252)
	for i := range s.keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s.keys[i] = x
	}
	slices.Sort(s.keys[:])
	sum := sha1.Sum(s.buf[:])
	s.buf[s.keys[0]%uint64(len(s.buf))] = sum[0]
	half := len(s.big) / 2
	copy(s.big[half:], s.big[:half])
	s.big[s.keys[1]%uint64(half)] = sum[1]
}

// kernel runs the work on every core at once and returns the wall time.
func (c *calibration) kernel() time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for i := range c.scratch {
		wg.Add(1)
		go func(s *calibScratch) {
			defer wg.Done()
			s.work()
		}(&c.scratch[i])
	}
	wg.Wait()
	return time.Since(start)
}

// point takes one calibration point now.
func (c *calibration) point() calibPoint {
	best := c.kernel()
	for i := 1; i < calibTries; i++ {
		best = min(best, c.kernel())
	}
	p := calibPoint{at: time.Now(), kernel: best}
	c.mu.Lock()
	c.points = append(c.points, p)
	c.mu.Unlock()
	return p
}

// factor is the machine's speed between from and to: the median kernel
// time of the points taken then, as a share of the reference (above 1 =
// slower than the reference). ok is false when no point falls in the
// interval. A nil calibration leaves times as measured.
func (c *calibration) factor(from, to time.Time) (f float64, ok bool) {
	if c == nil {
		return 1, true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var ks []time.Duration
	for _, p := range c.points {
		if !p.at.Before(from) && !p.at.After(to) {
			ks = append(ks, p.kernel)
		}
	}
	if len(ks) == 0 {
		return 1, false
	}
	return float64(median(ks)) / float64(calibReference), true
}
