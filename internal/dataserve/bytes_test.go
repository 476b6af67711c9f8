package dataserve_test

import (
	"testing"

	"scipp/internal/dataserve"
	"scipp/internal/pipeline"
)

// TestByteAccountingReconciles runs two tenants over a shared dataset and
// checks the byte ledger end to end: schedules stay bit-identical to their
// single-tenant twins, every tenant's BytesServed is exactly
// epochs * Σ payload, and the service total is the tenant sum.
func TestByteAccountingReconciles(t *testing.T) {
	const samples, batch, epochs = 24, 4, 2
	ds := buildDataset(samples, testShape)

	svc := dataserve.New(dataserve.Config{Workers: 4})
	defer svc.Close()
	err := svc.Register(dataserve.DatasetConfig{
		Name:   "shared",
		Data:   ds,
		Format: rawF32Format{testShape},
		Cache:  pipeline.CacheConfig{HostMemBytes: 16 << 20},
	})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	var tenants [2]*dataserve.Tenant
	for i, cfg := range []dataserve.TenantConfig{
		{Name: "alpha", Dataset: "shared", Batch: batch, Shuffle: true, Seed: 21},
		{Name: "beta", Dataset: "shared", Batch: batch, Shuffle: true, Seed: 22},
	} {
		tn, err := svc.Attach(cfg)
		if err != nil {
			t.Fatalf("Attach %s: %v", cfg.Name, err)
		}
		tenants[i] = tn
	}

	for i, seed := range []uint64{21, 22} {
		got := tenantDigest(t, tenants[i], epochs)
		if want := loaderDigest(t, ds, batch, true, seed, epochs); got != want {
			t.Errorf("tenant %d digest %#x != single-tenant twin %#x", i, got, want)
		}
	}

	// Every sample's payload is the decoded tensor's raw element bytes (no
	// header) plus its 1-element F32 label.
	perSample := int64(4*testShape.Elems() + 4)
	wantTenant := epochs * samples * perSample
	var sum int64
	for _, tn := range tenants {
		st := tn.Stats()
		if st.BytesServed != wantTenant {
			t.Errorf("tenant %s BytesServed %d, want %d", tn.Name(), st.BytesServed, wantTenant)
		}
		sum += st.BytesServed
	}
	ss := svc.Stats()
	if ss.ServedBytes != sum {
		t.Errorf("ServiceStats.ServedBytes %d != Σ tenant BytesServed %d", ss.ServedBytes, sum)
	}
	if ss.ShedBytes != 0 || ss.Shed != 0 {
		t.Errorf("unexpected shedding: %d requests / %d bytes", ss.Shed, ss.ShedBytes)
	}
}
