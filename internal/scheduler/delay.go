package scheduler

import (
	"time"

	"eclipsemr/internal/hashing"
)

// DelayConfig parameterizes the delay scheduler.
type DelayConfig struct {
	// Wait is how long a task waits for its (static) range owner before
	// being reassigned to any free server. Spark's suggested value, used
	// by the paper, is 5 seconds. Wait < 0 means unlimited waiting, the
	// behaviour the paper ascribes to LAF with weight factor 0.
	Wait time.Duration
}

// DefaultDelayConfig returns the paper's 5-second delay.
func DefaultDelayConfig() DelayConfig { return DelayConfig{Wait: 5 * time.Second} }

// Delay implements the paper's variant of Spark's delay scheduling
// (§II-F): hash-key ranges are fixed and aligned with the DHT file
// system; a task prefers its range owner and is launched non-locally
// only after it has been *skipped* — passed over while some other server
// had a free slot — for cfg.Wait, matching the delay-scheduling rule of
// Zaharia et al. [33] (the wait clock does not run while the whole
// cluster is saturated, since there is no slot the task is declining).
type Delay struct {
	core
	cfg DelayConfig
}

var _ Scheduler = (*Delay)(nil)

// NewDelay builds a Delay scheduler over the DHT file system ring; the
// hash-key table is aligned with the ring and never changes.
func NewDelay(cfg DelayConfig, ring *hashing.ChordRing) (*Delay, error) {
	table, err := ring.RangeTable()
	if err != nil {
		return nil, err
	}
	s := &Delay{cfg: cfg}
	s.init(table)
	return s, nil
}

// Dispatch assigns tasks in two passes, the way delay scheduling offers
// slots: every free slot first goes to a queued task that is local to it;
// only slots that no queued task wants locally are offered to waiting
// tasks, which accept non-local slots once they have been skipped —
// passed over while such a slot was available — for cfg.Wait.
func (s *Delay) Dispatch(now time.Duration) []Assignment {
	s.mu.Lock()
	defer s.mu.Unlock()
	free := s.beginLocked()
	if free == 0 {
		return nil
	}
	// Pass 1: local assignments.
	out, free := s.localLocked(nil, free, now)
	// Pass 2: slots nobody wants locally go to the most-free node and
	// are offered to waiting tasks. The skip clock starts at the first
	// declined offer; after cfg.Wait the task accepts a non-local slot.
	if free > 0 {
		node := s.slots.mostFree()[0]
		s.each(func(e *queued) (bool, bool) {
			if !e.skipped {
				e.skipped = true
				e.skippedAt = now
			}
			if s.cfg.Wait < 0 || now-e.skippedAt < s.cfg.Wait {
				return false, false
			}
			s.stats.DelayExpired++
			s.locate(e)
			out = append(out, s.assignLocked(e, node, node.id == e.owner, now))
			if free--; free == 0 {
				return true, true
			}
			node = s.slots.mostFree()[0]
			return true, false
		})
	}
	s.endLocked()
	return out
}

// NextDeadline returns the earliest instant a skipped task's delay
// expires, so a virtual-time driver knows when Dispatch could make
// progress without a Release. Tasks that have never been skipped carry no
// deadline: they advance only when their owner frees a slot.
func (s *Delay) NextDeadline() (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.Wait < 0 {
		return 0, false
	}
	var earliest time.Duration
	found := false
	for _, j := range s.jobs {
		for _, e := range j.tasks {
			if !e.skipped {
				continue
			}
			if d := e.skippedAt + s.cfg.Wait; !found || d < earliest {
				earliest, found = d, true
			}
		}
	}
	return earliest, found
}
