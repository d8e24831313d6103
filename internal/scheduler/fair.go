package scheduler

import (
	"math/rand"
	"time"

	"eclipsemr/internal/hashing"
)

// Fair is a locality-unaware least-loaded scheduler resembling Hadoop's
// default fair scheduling: each task goes to the server with the most
// free slots, in dispatch order. It serves as the baseline that trades
// all cache locality for immediate dispatch. Its table is retained only
// so locality can be *measured*.
type Fair struct {
	core
	// rnd breaks ties between equally loaded servers. Picking by node ID
	// instead would make placement mirror itself across identical job
	// runs, silently granting the locality-unaware baseline warm caches.
	// The fixed seed keeps the scheduler deterministic as a whole while
	// the stream position still separates one dispatch from the next.
	rnd *rand.Rand
}

var _ Scheduler = (*Fair)(nil)

// NewFair builds a Fair scheduler. The ring is used only to report which
// assignments happened to be local; it does not influence placement.
func NewFair(ring *hashing.ChordRing) (*Fair, error) {
	table, err := ring.RangeTable()
	if err != nil {
		return nil, err
	}
	s := &Fair{rnd: rand.New(rand.NewSource(1))}
	s.init(table)
	return s, nil
}

// Dispatch assigns queued tasks to the least-loaded servers.
func (s *Fair) Dispatch(now time.Duration) []Assignment {
	s.mu.Lock()
	defer s.mu.Unlock()
	free := s.beginLocked()
	if free == 0 {
		return nil
	}
	var out []Assignment
	s.each(func(e *queued) (bool, bool) {
		ties := s.slots.mostFree()
		node := ties[s.rnd.Intn(len(ties))]
		s.locate(e)
		out = append(out, s.assignLocked(e, node, node.id == e.owner, now))
		free--
		return true, free == 0
	})
	s.endLocked()
	return out
}
