package mpi

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// scaleSmokeRanks are the world sizes of the scale smoke tests: 1024
// (the paper's largest partition) stays below the 2048-member shard
// threshold and takes the cond rendezvous; 2048 is the smallest sharded
// world, 32 shards of 64 members.
var scaleSmokeRanks = []int{1024, 2048}

// TestScaleSmoke1024 drives the full substrate surface in one job at
// each scaleSmokeRanks size: collectives over the world group, Split
// sub-communicators of n/8 members (below the shard threshold, so they
// rendezvous on the cond path), and point-to-point fan-in. Under -race
// (make check runs the package that way) the 2048-rank case is the
// memory-model audit of the sharded rendezvous — lock-free scratch
// writes, counter cascades, gate releases and mailbox wakeups must all
// form clean happens-before chains.
func TestScaleSmoke1024(t *testing.T) {
	if testing.Short() {
		t.Skip("scale smoke test")
	}
	for _, n := range scaleSmokeRanks {
		t.Run(fmt.Sprintf("ranks=%d", n), func(t *testing.T) {
			if got := shardSizeFor(n); (got < n) != (n >= 2048) {
				t.Fatalf("shardSizeFor(%d) = %d: wrong rendezvous path for this size", n, got)
			}
			scaleSmoke(t, n)
		})
	}
}

func scaleSmoke(t *testing.T, n int) {
	fn := float64(n)
	err := Run(n, DefaultCost(), func(r *Rank) {
		w := r.World()
		me := r.WorldRank()
		for iter := 0; iter < 3; iter++ {
			w.Barrier()
			sum := w.AllreduceSum([]float64{1, float64(me)})
			if sum[0] != fn || sum[1] != fn*(fn-1)/2 {
				panic(fmt.Sprintf("allreduce-sum wrong at scale: %v", sum))
			}
			if got := w.AllreduceMax([]float64{float64(me)})[0]; got != fn-1 {
				panic(fmt.Sprintf("allreduce-max wrong at scale: %v", got))
			}
		}

		// Eight column sub-communicators of n/8 members each.
		sub := w.Split(me%8, me)
		if got := sub.AllreduceSum([]float64{1})[0]; got != fn/8 {
			panic(fmt.Sprintf("sub-communicator allreduce wrong: %v", got))
		}
		sub.Barrier()

		// Fan-in: every rank reports to world rank 0.
		if me == 0 {
			total := 0
			for src := 1; src < n; src++ {
				total += r.Recv(src, 5).(int)
			}
			if total != (n-1)*n/2 {
				panic(fmt.Sprintf("fan-in sum wrong: %d", total))
			}
		} else {
			r.Send(0, 5, me, 8)
		}
		w.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScaleSmokeCancel1024 parks n-1 ranks in a barrier that can never
// complete (rank 0 never arrives — it is blocked in a receive with no
// matching send) and cancels, at each scaleSmokeRanks size: the cond
// waiters (1024) or every shard gate (2048) and the mailbox must be
// force-opened, and the job must return the context error promptly.
func TestScaleSmokeCancel1024(t *testing.T) {
	if testing.Short() {
		t.Skip("scale smoke test")
	}
	for _, n := range scaleSmokeRanks {
		t.Run(fmt.Sprintf("ranks=%d", n), func(t *testing.T) {
			scaleSmokeCancel(t, n)
		})
	}
}

func scaleSmokeCancel(t *testing.T, n int) {
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- RunContext(ctx, n, DefaultCost(), nil, func(r *Rank) {
			if r.WorldRank() == 0 {
				r.Recv(1, 9) // never sent
				t.Error("Recv returned after cancellation")
				return
			}
			r.World().Barrier()
			t.Errorf("rank %d passed a barrier missing a member", r.WorldRank())
		})
	}()
	time.Sleep(100 * time.Millisecond) // let the ranks park
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunContext did not return after cancel: scale waiters leaked")
	}
}
