package scenario

import (
	"encoding/json"
	"strings"
	"testing"

	"ecgrid/internal/faults"
)

func TestValidateCoversFaultPlan(t *testing.T) {
	cfg := Default(ECGRID)
	cfg.Faults = &faults.Plan{
		Crashes: []faults.Crash{{Host: cfg.Hosts, At: 10}}, // index one past the end
	}
	if err := cfg.Validate(); err == nil {
		t.Fatal("out-of-range crash host accepted")
	}
	cfg.Faults = &faults.Plan{
		Jams: []faults.Jam{{
			Region:   faults.Region{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100},
			From:     cfg.Duration + 1, // past the end of the run
			Until:    cfg.Duration + 2,
			DropProb: 1,
		}},
	}
	if err := cfg.Validate(); err == nil {
		t.Fatal("jam window beyond the run duration accepted")
	}
	plan, err := faults.Preset("mixed", cfg.Hosts, cfg.AreaSize, cfg.Duration)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid preset plan rejected: %v", err)
	}
}

func TestValidateGAFFaultPlanCoversEndpoints(t *testing.T) {
	// GAF endpoint hosts extend the host index space; a crash targeting
	// one of them must validate.
	cfg := Default(GAF)
	cfg.Faults = &faults.Plan{
		Crashes: []faults.Crash{{Host: cfg.Hosts + cfg.EndpointHosts - 1, At: 10, Downtime: 5}},
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("endpoint-host crash rejected: %v", err)
	}
	cfg.Faults = &faults.Plan{
		Crashes: []faults.Crash{{Host: cfg.Hosts + cfg.EndpointHosts, At: 10}},
	}
	if err := cfg.Validate(); err == nil {
		t.Fatal("crash past the endpoint range accepted")
	}
}

func TestNilFaultPlanOmittedFromJSON(t *testing.T) {
	// The batch runner keys results on the marshaled Config; a nil plan
	// must not change the JSON, or every pre-existing store key breaks.
	data, err := json.Marshal(Default(ECGRID))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "Faults") {
		t.Fatalf("nil fault plan leaked into config JSON: %s", data)
	}
}

func TestFaultPlanSurvivesSaveLoad(t *testing.T) {
	path := t.TempDir() + "/faulted.json"
	cfg := Default(ECGRID)
	plan, err := faults.Preset("gateway-crash", cfg.Hosts, cfg.AreaSize, cfg.Duration)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan
	if err := cfg.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Faults == nil || len(got.Faults.Crashes) != 1 {
		t.Fatalf("fault plan lost in round trip: %+v", got.Faults)
	}
	if !got.Faults.Crashes[0].AnyGateway {
		t.Fatal("crash details lost in round trip")
	}
}
