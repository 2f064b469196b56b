package runner

import (
	"testing"
)

// TestGridPagingWorkBounded is a deterministic work guard on RAS grid
// paging. A page of an interior cell probes only the hosts the radio's
// spatial index places within the cell's circumradius of its center; a
// page of an edge cell, the hosts within paging range of the pager. The
// gate holds the hosts probed per page at 10% above the value measured
// when it was set (10.40: 8.56 per interior-cell page, 27.2 per
// edge-cell page). Drawing every page's candidates from the pager's
// range disc probes 38.0 per page; a page that swept every attached
// host would probe all 2000. The scenario is the dense-manhattan soak's
// geometry — area, clusters, street mobility, obstacles — at a fifth of
// its hosts.
func TestGridPagingWorkBounded(t *testing.T) {
	const measured = 10.40
	_, bus := run(soakGateConfig(t))
	if bus.GridPagesSent == 0 {
		t.Fatal("no grid pages sent: the guard measured nothing")
	}
	perPage := float64(bus.GridProbes) / float64(bus.GridPagesSent)
	t.Logf("%.2f hosts probed per grid page (%d probes / %d pages)", perPage, bus.GridProbes, bus.GridPagesSent)
	if limit := 1.1 * measured; perPage > limit {
		t.Fatalf("grid pages probed %.2f hosts each (%d probes / %d pages), want at most %.2f (measured %.2f, +10%%)",
			perPage, bus.GridProbes, bus.GridPagesSent, limit, measured)
	}
}
