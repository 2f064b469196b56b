package runner

import (
	"testing"

	"ecgrid/internal/scenario"
)

// TestGridPagingWorkBounded is a deterministic work guard on RAS grid
// paging: each grid page probes only the hosts the radio's spatial index
// places within paging range of the pager, so on a large clustered
// network the hosts probed per page stay a small fraction of the
// population. A page that swept every attached host would probe all N.
// The scenario is the dense-manhattan soak's geometry — area, clusters,
// street mobility, obstacles — at a fifth of its hosts.
func TestGridPagingWorkBounded(t *testing.T) {
	cfg, err := scenario.Load("../../scenarios/dense-manhattan-10k.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Hosts = 2000
	_, bus := run(cfg)
	if bus.GridPagesSent == 0 {
		t.Fatal("no grid pages sent: the guard measured nothing")
	}
	perPage := float64(bus.GridProbes) / float64(bus.GridPagesSent)
	if limit := 0.1 * float64(cfg.Hosts); perPage >= limit {
		t.Fatalf("grid pages probed %.1f hosts each (%d probes / %d pages), want < %.0f (10%% of %d hosts)",
			perPage, bus.GridProbes, bus.GridPagesSent, limit, cfg.Hosts)
	}
	t.Logf("%.1f hosts probed per grid page over %d pages (%d hosts)", perPage, bus.GridPagesSent, cfg.Hosts)
}
