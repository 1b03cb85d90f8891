package world

import (
	"testing"

	"github.com/ipda-sim/ipda/internal/core"
	"github.com/ipda-sim/ipda/internal/rng"
	"github.com/ipda-sim/ipda/internal/topology"
)

// trialCycle is one steady-state pooled trial: deploy through the arena,
// reset the slot's core instance, run a COUNT round. It is the loop a
// sweep worker runs per trial.
func trialCycle(t *testing.T, a *Arena, cfg core.Config, seed uint64) int64 {
	t.Helper()
	r := rng.New(seed)
	net, err := a.Deploy(topology.PaperConfig(200), r.Split(1))
	if err != nil {
		t.Fatal(err)
	}
	in, err := a.Core("slot", net, cfg, r.Split(2).Uint64())
	if err != nil {
		t.Fatal(err)
	}
	res, err := in.RunCount()
	if err != nil {
		t.Fatal(err)
	}
	return int64(res.Value)
}

// TestArenaCoreReuseMatchesFreshAndReusesInstance pins the reuse contract
// at the world layer: re-requesting a slot hands back the same Instance
// (so its cipher cache, MAC tables, and buffers persist), and the pooled
// run's result equals a from-scratch build at every seed.
func TestArenaCoreReuseMatchesFreshAndReusesInstance(t *testing.T) {
	a := New()
	cfg := core.DefaultConfig()
	r := rng.New(3)
	net, err := a.Deploy(topology.PaperConfig(200), r.Split(1))
	if err != nil {
		t.Fatal(err)
	}
	first, err := a.Core("slot", net, cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	again, err := a.Core("slot", net, cfg, 12)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Fatal("arena built a new core.Instance instead of resetting the slot's")
	}
	for seed := uint64(1); seed <= 3; seed++ {
		pooled := trialCycle(t, a, cfg, seed)
		fresh := trialCycle(t, nil, cfg, seed) // nil arena = plain construction
		if pooled != fresh {
			t.Fatalf("seed %d: pooled COUNT = %d, fresh = %d", seed, pooled, fresh)
		}
	}
}

// TestArenaCoreReuseAllocation pins what trial-lifetime reuse buys after
// the AES datapath change: a steady-state pooled trial — deployment,
// instance reset (which retains the expanded AES key schedules through
// the cipher cache's generation bump), and a COUNT round — must allocate
// a small fraction of what the same trial costs built fresh.
func TestArenaCoreReuseAllocation(t *testing.T) {
	// The link cipher is AES-based; the subtest is named for it.
	t.Run("aes", func(t *testing.T) {
		cfg := core.DefaultConfig()
		a := New()
		// Warm the arena past its growth phase: the pools size to the
		// largest deployment they have seen.
		for seed := uint64(1); seed <= 3; seed++ {
			trialCycle(t, a, cfg, seed)
		}
		seed := uint64(0)
		pooled := testing.AllocsPerRun(3, func() {
			seed++
			trialCycle(t, a, cfg, seed)
		})
		seed = 0
		fresh := testing.AllocsPerRun(3, func() {
			seed++
			trialCycle(t, nil, cfg, seed)
		})
		if pooled > fresh/4 {
			t.Fatalf("pooled trial allocates %.0f objects vs %.0f fresh — reuse is not retaining state", pooled, fresh)
		}
	})
}
