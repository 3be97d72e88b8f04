package service_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"horse/api/wire"
	"horse/internal/service"
	"horse/internal/simtime"
)

// mixedSpecs is one spec per fidelity the manager must multiplex: flow,
// packet, and hybrid.
// Every spec is deterministic, so daemon-run records must be
// byte-identical to a one-shot run of the same spec.
func mixedSpecs() []*wire.SessionSpec {
	base := func() *wire.SessionSpec {
		return &wire.SessionSpec{
			Topology: wire.TopoSpec{Kind: wire.TopoLeafSpine, Leaves: 2, Spines: 2, Hosts: 2},
			Workload: wire.WorkloadSpec{Poisson: &wire.PoissonSpec{
				Seed: 5, Lambda: 200, HorizonNs: int64(2 * simtime.Second),
				Size: wire.SizeSpec{Kind: wire.SizeFixed, Bits: 4e5}, TCPFraction: 0.5,
			}},
			Options: wire.OptionsSpec{
				Controller: []wire.AppSpec{{Kind: wire.AppProactiveMAC}},
				Miss:       "controller",
			},
			UntilNs: int64(20 * simtime.Second),
		}
	}
	flow := base()

	packet := base()
	packet.Options.Fidelity = wire.FidelityPacket
	packet.Workload.Poisson.Lambda = 50 // packet-level events are ~1000x denser

	hybrid := base()
	hybrid.Options.Fidelity = wire.FidelityHybrid
	pf := 0.5
	hybrid.Options.PacketFraction = &pf
	hybrid.Workload.Poisson.Lambda = 100

	return []*wire.SessionSpec{flow, packet, hybrid}
}

// TestConcurrentSessionsParity drives many concurrent sessions of mixed
// fidelity through one manager — with mid-run cancels and retires in the
// mix — and asserts every completed session's records are byte-identical
// to a one-shot run of the same spec. Run it under -race: it is the
// session layer's interleaving stress test.
func TestConcurrentSessionsParity(t *testing.T) {
	specs := mixedSpecs()

	// One-shot baselines, computed up front (sequentially, for clean
	// attribution if a spec itself is broken).
	want := make([][]wire.Record, len(specs))
	for i, spec := range specs {
		want[i] = oneShotRecords(t, spec)
		if len(want[i]) == 0 {
			t.Fatalf("spec %d produced no records", i)
		}
	}

	mgr := service.New(service.Config{
		MaxSessions:   3,
		MaxWorkers:    4,
		ProgressEvery: 10 * simtime.Millisecond,
	})

	var wg sync.WaitGroup
	errc := make(chan error, 2*len(specs)+2)

	// Parity clients: submit, stream, compare.
	for round := 0; round < 2; round++ {
		for i, spec := range specs {
			wg.Add(1)
			go func(round, i int, spec *wire.SessionSpec) {
				defer wg.Done()
				sub := service.NewSubscriber(4096)
				defer sub.Close()
				label := fmt.Sprintf("round %d spec %d", round, i)
				st, err := mgr.Submit(spec, label, true, sub)
				if err != nil {
					errc <- fmt.Errorf("%s: submit: %w", label, err)
					return
				}
				recs, done := drainSession(t, sub, st.Session)
				if done.State != wire.StateDone {
					errc <- fmt.Errorf("%s: finished %q (%s)", label, done.State, done.Error)
					return
				}
				if len(recs) != len(want[i]) {
					errc <- fmt.Errorf("%s: %d records, one-shot %d", label, len(recs), len(want[i]))
					return
				}
				for j := range recs {
					if recs[j] != want[i][j] {
						errc <- fmt.Errorf("%s: record %d differs:\n daemon  %+v\n one-shot %+v",
							label, j, recs[j], want[i][j])
						return
					}
				}
				// Retire concurrently with everything else still running.
				if _, err := mgr.Retire(st.Session); err != nil {
					errc <- fmt.Errorf("%s: retire: %w", label, err)
				}
			}(round, i, spec)
		}
	}

	// Chaos clients: submit long sessions and cancel them mid-run, then
	// retire. Their Done must still be consistent (canceled, summary
	// matching the streamed records).
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			sub := service.NewSubscriber(4096)
			defer sub.Close()
			spec := busySpec()
			st, err := mgr.Submit(spec, fmt.Sprintf("chaos %d", k), true, sub)
			if err != nil {
				errc <- fmt.Errorf("chaos %d: submit: %w", k, err)
				return
			}
			time.Sleep(time.Duration(5+10*k) * time.Millisecond)
			if _, err := mgr.Cancel(st.Session); err != nil {
				errc <- fmt.Errorf("chaos %d: cancel: %w", k, err)
				return
			}
			recs, done := drainSession(t, sub, st.Session)
			switch done.State {
			case wire.StateCanceled, wire.StateDone: // done if the cancel raced completion
			default:
				errc <- fmt.Errorf("chaos %d: finished %q (%s)", k, done.State, done.Error)
				return
			}
			// Canceled while queued → never ran, no summary, no records.
			// Otherwise the summary must match the streamed records exactly.
			if done.Summary == nil {
				if len(recs) != 0 {
					errc <- fmt.Errorf("chaos %d: %d records but no summary", k, len(recs))
					return
				}
			} else if done.Summary.Records != len(recs) {
				errc <- fmt.Errorf("chaos %d: summary %+v does not match %d streamed records",
					k, done.Summary, len(recs))
				return
			}
			if _, err := mgr.Retire(st.Session); err != nil {
				errc <- fmt.Errorf("chaos %d: retire: %w", k, err)
			}
		}(k)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	if got := mgr.List(); len(got) != 0 {
		t.Fatalf("all sessions retired, but %d remain: %+v", len(got), got)
	}
}
