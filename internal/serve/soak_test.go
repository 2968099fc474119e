package serve

import "testing"

// TestSoakSmoke is the CI-sized chaos soak: 16 streams covering every
// fault profile, 2 injected panics, one crash-looping session, under
// -race. It is the same harness verify.sh runs via fallserve.
func TestSoakSmoke(t *testing.T) {
	rep, err := RunSoak(SoakConfig{
		Sessions: 16,
		Samples:  600,
		Panics:   2,
		Seed:     42,
		Log:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rep.Check() {
		t.Error(e)
	}
	if t.Failed() {
		for _, s := range rep.Sessions {
			t.Logf("session %d %-10s state=%v brk=%d counters=%+v trig=%v cmp=%v/%v",
				s.ID, s.Profile, s.State, s.Breaker, s.Counters, s.Triggered, s.Compared, s.Identical)
		}
	}
}

// TestSoakDeterministic pins that every reported counter is
// bit-stable across runs of the same config.
func TestSoakDeterministic(t *testing.T) {
	run := func() *SoakReport {
		rep, err := RunSoak(SoakConfig{
			Sessions: 8,
			Samples:  600,
			Panics:   1,
			Seed:     7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if len(a.Sessions) != len(b.Sessions) {
		t.Fatalf("session counts differ: %d vs %d", len(a.Sessions), len(b.Sessions))
	}
	for i := range a.Sessions {
		x, y := a.Sessions[i], b.Sessions[i]
		if x != y {
			t.Errorf("session %d differs across runs:\n run1 %+v\n run2 %+v", i, x, y)
		}
	}
	if a.Totals != b.Totals {
		t.Errorf("totals differ:\n run1 %+v\n run2 %+v", a.Totals, b.Totals)
	}
	if a.States != b.States {
		t.Errorf("state counts differ: %v vs %v", a.States, b.States)
	}
}
