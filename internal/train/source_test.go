package train

import (
	"fmt"
	"sync"
	"testing"

	"scipp/internal/core"
	"scipp/internal/dataserve"
	"scipp/internal/pipeline"
)

// attachCosmoTenant registers the run's dataset with a shared service and
// attaches a tenant whose schedule config mirrors what elasticRun's private
// loader would have used (Batch, Shuffle, Seed, DropLast) — the contract
// NewTenantSource documents for bit-identical batches.
func attachCosmoTenant(t *testing.T, svc *dataserve.Service, name string, cfg Config) *dataserve.Tenant {
	t.Helper()
	cosmo := tinyCosmo()
	built, err := core.BuildCosmoDataset(cosmo, cfg.Samples, cfg.encoding())
	if err != nil {
		t.Fatal(err)
	}
	if svc.Cache(name) == nil {
		err = svc.Register(dataserve.DatasetConfig{
			Name:   name,
			Data:   built,
			Format: core.FormatFor(core.CosmoFlow, cfg.encoding()),
			Cache:  pipeline.CacheConfig{HostMemBytes: 32 << 20},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	tn, err := svc.Attach(dataserve.TenantConfig{
		Name:     fmt.Sprintf("job-%s-%d", name, cfg.Seed),
		Dataset:  name,
		Batch:    cfg.Batch,
		Shuffle:  true,
		Seed:     cfg.Seed,
		DropLast: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

// TestElasticTenantSourceBitIdentical runs the same elastic CosmoFlow
// config twice — once on the default private loader, once drawing batches
// from a dataserve tenant — and requires bit-identical training: every
// epoch loss and step loss must match exactly.
func TestElasticTenantSourceBitIdentical(t *testing.T) {
	cosmo := tinyCosmo()
	cfg := Config{Samples: 8, Batch: 4, Epochs: 3, Seed: 7, LR: 0.01, Warmup: 1}

	private, err := ElasticCosmoFlow(cosmo, cfg, ElasticConfig{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}

	svc := dataserve.New(dataserve.Config{})
	defer svc.Close()
	tn := attachCosmoTenant(t, svc, "cosmo", cfg)
	shared, err := ElasticCosmoFlow(cosmo, cfg, ElasticConfig{
		Ranks:  2,
		Source: NewTenantSource(tn),
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(shared.Losses) != len(private.Losses) {
		t.Fatalf("epoch count %d != %d", len(shared.Losses), len(private.Losses))
	}
	for e := range private.Losses {
		if shared.Losses[e] != private.Losses[e] {
			t.Errorf("epoch %d loss %v != private %v", e, shared.Losses[e], private.Losses[e])
		}
	}
	if len(shared.StepLosses) != len(private.StepLosses) {
		t.Fatalf("step count %d != %d", len(shared.StepLosses), len(private.StepLosses))
	}
	for s := range private.StepLosses {
		if shared.StepLosses[s] != private.StepLosses[s] {
			t.Errorf("step %d loss %v != private %v", s, shared.StepLosses[s], private.StepLosses[s])
		}
	}

	// The tenant actually fed the run: one full schedule per epoch, all
	// samples served through the shared path.
	st := tn.Stats()
	if want := int64(cfg.Samples * cfg.Epochs); st.Samples != want {
		t.Errorf("tenant served %d samples, want %d", st.Samples, want)
	}
}

// TestElasticTwoTenantsOneService multiplexes two concurrent elastic
// CosmoFlow runs over one shared service: each must train bit-identically
// to its own private-loader twin, and the service must decode each sample
// once — the second job rides the first's decodes.
func TestElasticTwoTenantsOneService(t *testing.T) {
	cosmo := tinyCosmo()
	cfgs := [2]Config{
		{Samples: 8, Batch: 4, Epochs: 2, Seed: 7, LR: 0.01, Warmup: 1},
		{Samples: 8, Batch: 2, Epochs: 2, Seed: 13, LR: 0.02, Warmup: 1},
	}

	var privates [2]*Result
	for i, cfg := range cfgs {
		res, err := ElasticCosmoFlow(cosmo, cfg, ElasticConfig{Ranks: 2})
		if err != nil {
			t.Fatal(err)
		}
		privates[i] = res
	}

	svc := dataserve.New(dataserve.Config{})
	defer svc.Close()
	var tenants [2]*dataserve.Tenant
	for i, cfg := range cfgs {
		tenants[i] = attachCosmoTenant(t, svc, "cosmo", cfg)
	}

	var shared [2]*Result
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func(i int, cfg Config) {
			defer wg.Done()
			shared[i], errs[i] = ElasticCosmoFlow(cosmo, cfg, ElasticConfig{
				Ranks:  2,
				Source: NewTenantSource(tenants[i]),
			})
		}(i, cfg)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}

	for i := range cfgs {
		for s := range privates[i].StepLosses {
			if shared[i].StepLosses[s] != privates[i].StepLosses[s] {
				t.Fatalf("job %d step %d loss %v != private %v",
					i, s, shared[i].StepLosses[s], privates[i].StepLosses[s])
			}
		}
	}

	// Work sharing across jobs: 8 distinct samples, decoded once each.
	st := svc.Stats()
	if st.Decodes != 8 {
		t.Errorf("service decoded %d samples, want 8 (shared across both jobs)", st.Decodes)
	}
	if st.Dedup != 8 {
		t.Errorf("service dedup %d, want 8 (second job's first touches)", st.Dedup)
	}
}
