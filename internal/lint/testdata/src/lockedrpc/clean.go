package lockedrpc

import "context"

// unlockFirst is the sanctioned shape: snapshot state under the lock,
// release, then do network I/O.
func unlockFirst(s *srv) {
	s.mu.Lock()
	succ := s.succ
	s.mu.Unlock()
	if _, err := s.net.Call(context.Background(), succ, "ping", nil); err != nil {
		return
	}
}

// goroutineBody runs in its own lock context: the spawn site holds the
// mutex, the RPC does not.
func goroutineBody(s *srv) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		if _, err := s.net.Call(context.Background(), s.succ, "ping", nil); err != nil {
			return
		}
	}()
}

// spawnUnderLock calls, under the mutex, a helper whose RPC runs on a
// goroutine it starts: the helper does not block, so its caller holds
// the mutex across no RPC.
func spawnUnderLock(s *srv) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pingAsync()
}

// pingAsync starts a ping and returns without waiting for it.
func (s *srv) pingAsync() {
	go s.rpc()
}

// lockAfter acquires the mutex only after the RPC returns.
func lockAfter(s *srv) {
	if _, err := s.net.Call(context.Background(), s.succ, "ping", nil); err != nil {
		return
	}
	s.mu.Lock()
	s.succ = ""
	s.mu.Unlock()
}
