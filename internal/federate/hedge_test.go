package federate

import (
	"context"
	"errors"
	"testing"
	"time"

	"sparqlrw/internal/eval"
)

func hedgeOpts() Options {
	o := fastOpts()
	o.Hedge = true
	o.HedgeMinDelay = 5 * time.Millisecond
	return o
}

// TestHedgeBackupWins: the primary stalls well past the hedge delay,
// the backup replica answers immediately — the fan-out returns the
// backup's rows, counts the hedge and the win, and cancels the primary.
func TestHedgeBackupWins(t *testing.T) {
	fc := newFakeClient()
	primaryCancelled := make(chan struct{})
	fc.on("slow", func(ctx context.Context, _ int) (*eval.Result, error) {
		select {
		case <-ctx.Done():
			close(primaryCancelled)
			return nil, ctx.Err()
		case <-time.After(2 * time.Second):
			return answers("http://a.example/slow"), nil
		}
	})
	fc.on("replica", func(context.Context, int) (*eval.Result, error) {
		return answers("http://a.example/fast"), nil
	})

	e := NewExecutor(fc, nil, nil, hedgeOpts())
	start := time.Now()
	res, err := selectAll(context.Background(), e,
		req(Target{Dataset: "d", Endpoint: "slow", Replicas: []string{"replica"}}))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("hedged query took %s — waited for the slow primary", elapsed)
	}
	if len(res.Solutions) != 1 || res.Solutions[0]["a"].Value != "http://a.example/fast" {
		t.Fatalf("solutions = %+v, want the replica's answer", res.Solutions)
	}
	if res.PerDataset[0].Err != nil {
		t.Fatalf("PerDataset err = %v", res.PerDataset[0].Err)
	}
	st := e.Stats()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("hedges = %d, wins = %d, want 1/1", st.Hedges, st.HedgeWins)
	}
	select {
	case <-primaryCancelled:
	case <-time.After(2 * time.Second):
		t.Fatal("losing primary was never cancelled")
	}
}

// TestHedgeCancelledLoserNotCharged: a losing primary whose cancellation
// surfaces as some other error (a response body cut short) is no more at
// fault than one that reports context.Canceled: its breaker stays closed
// however often it loses, so the data set keeps answering.
func TestHedgeCancelledLoserNotCharged(t *testing.T) {
	fc := newFakeClient()
	fc.on("slow", func(ctx context.Context, _ int) (*eval.Result, error) {
		<-ctx.Done()
		return nil, errors.New("srjson: unexpected EOF")
	})
	fc.on("replica", func(context.Context, int) (*eval.Result, error) {
		return answers("http://a.example/fast"), nil
	})
	opts := hedgeOpts()
	opts.BreakerFailures = 1
	e := NewExecutor(fc, nil, nil, opts)
	for i := range 3 {
		res, err := selectAll(context.Background(), e,
			req(Target{Dataset: "d", Endpoint: "slow", Replicas: []string{"replica"}}))
		if err != nil || len(res.Solutions) != 1 || res.PerDataset[0].Err != nil {
			t.Fatalf("fan-out %d: %+v, %v; want the replica's answer", i, res, err)
		}
	}
	if h := snapshotFor(t, e.Endpoints(), "slow"); h.Failures != 0 || h.Breaker != "closed" {
		t.Fatalf("losing primary = %+v, want no failure charged", h)
	}
	if st := e.Stats(); st.HedgeWins != 3 {
		t.Fatalf("hedge wins = %d, want 3", st.HedgeWins)
	}
}

// TestHedgeNotFiredWhenPrimaryFast: a primary that answers inside the
// hedge delay never triggers a backup dispatch.
func TestHedgeNotFiredWhenPrimaryFast(t *testing.T) {
	fc := newFakeClient()
	fc.on("fast", func(context.Context, int) (*eval.Result, error) {
		return answers("http://a.example/1"), nil
	})
	fc.on("replica", func(context.Context, int) (*eval.Result, error) {
		t.Error("backup dispatched for a fast primary")
		return answers("http://a.example/1"), nil
	})

	e := NewExecutor(fc, nil, nil, hedgeOpts())
	res, err := selectAll(context.Background(), e,
		req(Target{Dataset: "d", Endpoint: "fast", Replicas: []string{"replica"}}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 {
		t.Fatalf("solutions = %d", len(res.Solutions))
	}
	if fc.callCount("replica") != 0 {
		t.Fatalf("replica dispatched %d times", fc.callCount("replica"))
	}
	if st := e.Stats(); st.Hedges != 0 {
		t.Fatalf("hedges = %d, want 0", st.Hedges)
	}
}

// TestHedgeBackupFailsPrimaryStillAnswers: a failing backup must not
// poison the attempt — the primary's (slower) answer is still returned
// and the win counter stays at zero.
func TestHedgeBackupFailsPrimaryStillAnswers(t *testing.T) {
	fc := newFakeClient()
	fc.on("slowish", func(ctx context.Context, _ int) (*eval.Result, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(50 * time.Millisecond):
			return answers("http://a.example/primary"), nil
		}
	})
	fc.on("replica", func(context.Context, int) (*eval.Result, error) {
		return nil, errors.New("replica exploded")
	})

	e := NewExecutor(fc, nil, nil, hedgeOpts())
	res, err := selectAll(context.Background(), e,
		req(Target{Dataset: "d", Endpoint: "slowish", Replicas: []string{"replica"}}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 || res.Solutions[0]["a"].Value != "http://a.example/primary" {
		t.Fatalf("solutions = %+v, want the primary's answer", res.Solutions)
	}
	st := e.Stats()
	if st.Hedges != 1 || st.HedgeWins != 0 {
		t.Fatalf("hedges = %d, wins = %d, want 1/0", st.Hedges, st.HedgeWins)
	}
}

// TestHedgePicksHealthiestReplica: with two replicas on record, the
// backup goes to the one the endpoint table scores higher.
func TestHedgePicksHealthiestReplica(t *testing.T) {
	fc := newFakeClient()
	fc.on("slow", func(ctx context.Context, _ int) (*eval.Result, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(2 * time.Second):
			return answers("http://a.example/slow"), nil
		}
	})
	fc.on("good-replica", func(context.Context, int) (*eval.Result, error) {
		return answers("http://a.example/good"), nil
	})
	fc.on("bad-replica", func(context.Context, int) (*eval.Result, error) {
		t.Error("hedge chose the unhealthy replica")
		return nil, errors.New("boom")
	})

	e := NewExecutor(fc, nil, nil, hedgeOpts())
	for i := 0; i < 20; i++ {
		observeAttempt(e.endpoints, "bad-replica", 2*time.Second, errors.New("boom"))
		observeAttempt(e.endpoints, "good-replica", time.Millisecond, nil)
	}
	res, err := selectAll(context.Background(), e,
		req(Target{Dataset: "d", Endpoint: "slow",
			Replicas: []string{"bad-replica", "good-replica"}}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solutions) != 1 || res.Solutions[0]["a"].Value != "http://a.example/good" {
		t.Fatalf("solutions = %+v, want the healthy replica's answer", res.Solutions)
	}
	if fc.callCount("bad-replica") != 0 {
		t.Fatal("unhealthy replica was dispatched")
	}
}

// TestHedgeReplicaServesWhilePrimaryOpen: once the primary's breaker has
// opened, a hedged target's attempt goes to its replica instead of
// failing with ErrCircuitOpen, and the replica's record carries it.
func TestHedgeReplicaServesWhilePrimaryOpen(t *testing.T) {
	fc := newFakeClient()
	fc.on("primary", func(context.Context, int) (*eval.Result, error) {
		return nil, errors.New("primary down")
	})
	fc.on("replica", func(context.Context, int) (*eval.Result, error) {
		return answers("http://a.example/replica"), nil
	})
	opts := hedgeOpts()
	opts.BreakerFailures = 1
	e := NewExecutor(fc, nil, nil, opts)
	target := Target{Dataset: "d", Endpoint: "primary", Replicas: []string{"replica"}}
	if res, _ := selectAll(context.Background(), e, req(target)); res.PerDataset[0].Err == nil {
		t.Fatal("first fan-out: the failing primary reported no error")
	}
	if h := snapshotFor(t, e.Endpoints(), "primary"); h.Breaker != "open" {
		t.Fatalf("primary after one failure = %+v, want its breaker open", h)
	}
	res, err := selectAll(context.Background(), e, req(target))
	if err != nil || res.PerDataset[0].Err != nil {
		t.Fatalf("fan-out inside the cooldown: %v, %v; want the replica's answer", err, res.PerDataset[0].Err)
	}
	if len(res.Solutions) != 1 || res.Solutions[0]["a"].Value != "http://a.example/replica" {
		t.Fatalf("solutions = %+v, want the replica's answer", res.Solutions)
	}
	if p := snapshotFor(t, e.Endpoints(), "primary"); p.Rejected != 1 || p.Attempts != 1 {
		t.Fatalf("primary = %+v, want 1 attempt and 1 rejection", p)
	}
	if r := snapshotFor(t, e.Endpoints(), "replica"); r.Successes != 1 || r.Solutions != 1 {
		t.Fatalf("replica = %+v, want the dispatch settled on its record", r)
	}
	if st := e.Stats(); st.Hedges != 0 {
		t.Fatalf("hedges = %d, want 0: the fallback is not a hedge", st.Hedges)
	}
}
