package dhtfs

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"eclipsemr/internal/hashing"
	"eclipsemr/internal/transport"
)

// newAlgTestCluster wires n Services over a ring of the given algorithm.
// It is the non-chord counterpart of newTestCluster, pinning that dhtfs
// works against the Ring interface rather than chord internals.
func newAlgTestCluster(t *testing.T, alg string, n, replicas int) (*transport.Local, []*Service) {
	t.Helper()
	ring, err := hashing.NewAlgorithmRing(alg)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewLocal()
	ringFn := func() hashing.Ring { return ring.Snapshot() }
	services := make([]*Service, 0, n)
	for i := 0; i < n; i++ {
		id := hashing.NodeID(fmt.Sprintf("node-%02d", i))
		if err := ring.AddNode(id); err != nil {
			t.Fatal(err)
		}
		svc, err := NewService(id, net, ringFn, replicas)
		if err != nil {
			t.Fatal(err)
		}
		handler := func(s *Service) transport.Handler {
			return func(ctx context.Context, method string, body []byte) ([]byte, error) {
				out, ok, err := s.Handle(ctx, method, body)
				if !ok {
					return nil, fmt.Errorf("unknown method %s", method)
				}
				return out, err
			}
		}(svc)
		if err := net.Listen(id, handler); err != nil {
			t.Fatal(err)
		}
		services = append(services, svc)
	}
	return net, services
}

// TestRoutedReadOnNonChordRings is the regression test for the routed
// read path's chord assumption: without a finger table, non-chord
// backends must fall back to one direct hop to the owner, never looping
// or erroring. Before the Ring interface this path could only build a
// chord finger table.
func TestRoutedReadOnNonChordRings(t *testing.T) {
	for _, alg := range []string{hashing.AlgorithmJump, hashing.AlgorithmPower, hashing.AlgorithmRendezvous} {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			_, services := newAlgTestCluster(t, alg, 6, 1) // replicas=1: routing must find the one owner
			svc := services[0]
			data := randomData(2048, 17)
			meta, err := svc.Upload(context.Background(), "routed.dat", "u", PermPublic, data, 256)
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range meta.BlockKeys {
				got, hops, err := svc.readBlockRouted(context.Background(), k, meta.BlockSums[i])
				if err != nil {
					t.Fatalf("routed read %s: %v", k, err)
				}
				direct, _, err := svc.PinBlock(context.Background(), k, meta.BlockSums[i])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), direct.Bytes()) {
					t.Fatalf("routed read of %s differs from direct", k)
				}
				if hops > 1 {
					t.Fatalf("non-chord routing took %d hops for %s, want at most 1 (direct to owner)", hops, k)
				}
			}

			// The routed ReadFile path (zero-hop off) must reassemble too.
			svc.SetZeroHop(false)
			got, err := svc.ReadFile(context.Background(), "routed.dat", "u")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("routed ReadFile corrupted data")
			}

			// A missing block still reports not-found, not a routing loop.
			if _, _, err := services[1].readBlockRouted(context.Background(), hashing.KeyOfString("never-stored"), SumBlock(nil)); !IsNotFound(err) {
				t.Fatalf("missing block err = %v, want not-found", err)
			}
		})
	}
}
