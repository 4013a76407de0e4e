package repro

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/resultcache"
	"repro/internal/service"
)

// BenchmarkFleetCampaign measures one fresh analytic campaign through the
// fleet path: an in-process coordinator (affinityd -coordinator) and two
// workers (affinityd -join) on loopback listeners, and per iteration a
// never-seen analytic compare over all six mixes, POSTed synchronously
// to the coordinator. Every cell misses the coordinator's tiers and is
// dispatched, so the figure is dominated by the dispatch transport and
// the workers' cell execution.
func BenchmarkFleetCampaign(b *testing.B) {
	coord := fleet.NewCoordinator(fleet.Config{})
	srv := service.New(service.Config{Fleet: coord})
	front := httptest.NewServer(srv.Handler())
	defer func() {
		front.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	for i := 0; i < 2; i++ {
		w := fleet.NewWorker(fleet.WorkerConfig{Coordinator: front.URL, Cache: resultcache.New(64 << 20), Heartbeat: time.Minute})
		mux := http.NewServeMux()
		w.RegisterHandlers(mux)
		ts := httptest.NewServer(mux)
		defer ts.Close()
		w.Start(ts.URL)
		defer w.Stop()
	}
	if n := coord.LiveWorkers(); n != 2 {
		b.Fatalf("%d of 2 workers registered", n)
	}
	seed := uint64(1) << 42
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed++
		body := fmt.Sprintf(`{"kind":"compare","params":{"fast":true,"seed":%d,"engine":"analytic",`+
			`"policies":["Equipartition","Dynamic","Dyn-Aff","Dyn-Aff-NoPri"]}}`, seed)
		resp, err := http.Post(front.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("campaign: %d %s", resp.StatusCode, out)
		}
	}
}
