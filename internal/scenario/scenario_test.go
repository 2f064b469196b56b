package scenario

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"ecgrid/internal/scengen"
)

func TestDefaultIsValid(t *testing.T) {
	for _, p := range []ProtocolKind{ECGRID, GRID, GAF} {
		if err := Default(p).Validate(); err != nil {
			t.Errorf("Default(%s) invalid: %v", p, err)
		}
	}
}

func TestDefaultMatchesPaperSetup(t *testing.T) {
	cfg := Default(ECGRID)
	if cfg.AreaSize != 1000 || cfg.GridSize != 100 {
		t.Errorf("area/grid = %v/%v", cfg.AreaSize, cfg.GridSize)
	}
	if cfg.Radio.Range != 250 || cfg.Radio.BitrateBps != 2e6 {
		t.Errorf("radio = %+v", cfg.Radio)
	}
	if cfg.InitialEnergyJ != 500 {
		t.Errorf("energy = %v", cfg.InitialEnergyJ)
	}
	if cfg.Hosts != 100 || cfg.PacketBytes != 512 {
		t.Errorf("hosts/bytes = %d/%d", cfg.Hosts, cfg.PacketBytes)
	}
	if cfg.NetworkLoadPktsPerSec() != 10 {
		t.Errorf("load = %v, want the paper's 10 pkt/s", cfg.NetworkLoadPktsPerSec())
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := map[string]func(*Config){
		"bad protocol":      func(c *Config) { c.Protocol = "bogus" },
		"no hosts":          func(c *Config) { c.Hosts = 0 },
		"zero area":         func(c *Config) { c.AreaSize = 0 },
		"zero grid":         func(c *Config) { c.GridSize = 0 },
		"grid > area":       func(c *Config) { c.GridSize = 5000 },
		"zero speed":        func(c *Config) { c.MaxSpeedMS = 0 },
		"negative pause":    func(c *Config) { c.PauseTime = -1 },
		"negative flows":    func(c *Config) { c.Flows = -1 },
		"zero rate":         func(c *Config) { c.RatePerFlow = 0 },
		"zero packet bytes": func(c *Config) { c.PacketBytes = 0 },
		"zero energy":       func(c *Config) { c.InitialEnergyJ = 0 },
		"zero duration":     func(c *Config) { c.Duration = 0 },
		"zero sampling":     func(c *Config) { c.SampleEvery = 0 },
		"one host traffic":  func(c *Config) { c.Hosts = 1 },
		// Degenerate values that used to slip through: traffic knobs
		// must be sane even with no flows, and non-finite floats are
		// never valid anywhere.
		"negative rate, no flows":  func(c *Config) { c.Flows = 0; c.RatePerFlow = -1 },
		"negative bytes, no flows": func(c *Config) { c.Flows = 0; c.PacketBytes = -64 },
		"negative traffic start":   func(c *Config) { c.TrafficStart = -5 },
		"NaN area":                 func(c *Config) { c.AreaSize = math.NaN() },
		"Inf area":                 func(c *Config) { c.AreaSize = math.Inf(1) },
		"NaN grid":                 func(c *Config) { c.GridSize = math.NaN() },
		"NaN speed":                func(c *Config) { c.MaxSpeedMS = math.NaN() },
		"Inf speed":                func(c *Config) { c.MaxSpeedMS = math.Inf(1) },
		"NaN pause":                func(c *Config) { c.PauseTime = math.NaN() },
		"NaN rate":                 func(c *Config) { c.RatePerFlow = math.NaN() },
		"NaN traffic start":        func(c *Config) { c.TrafficStart = math.NaN() },
		"NaN energy":               func(c *Config) { c.InitialEnergyJ = math.NaN() },
		"NaN duration":             func(c *Config) { c.Duration = math.NaN() },
		"Inf duration":             func(c *Config) { c.Duration = math.Inf(1) },
		"NaN sampling":             func(c *Config) { c.SampleEvery = math.NaN() },
		// Radio parameters NewChannel would panic on, or that make the
		// MAC timing meaningless: a 400 from simd and exit 2 from the
		// CLIs, not a panic inside runner.Run.
		"zero range":          func(c *Config) { c.Radio.Range = 0 },
		"negative range":      func(c *Config) { c.Radio.Range = -250 },
		"NaN range":           func(c *Config) { c.Radio.Range = math.NaN() },
		"Inf range":           func(c *Config) { c.Radio.Range = math.Inf(1) },
		"zero bitrate":        func(c *Config) { c.Radio.BitrateBps = 0 },
		"negative bitrate":    func(c *Config) { c.Radio.BitrateBps = -1 },
		"NaN bitrate":         func(c *Config) { c.Radio.BitrateBps = math.NaN() },
		"Inf bitrate":         func(c *Config) { c.Radio.BitrateBps = math.Inf(1) },
		"negative prop delay": func(c *Config) { c.Radio.PropDelay = -1e-6 },
		"NaN prop delay":      func(c *Config) { c.Radio.PropDelay = math.NaN() },
		"Inf prop delay":      func(c *Config) { c.Radio.PropDelay = math.Inf(1) },
		"negative slot time":  func(c *Config) { c.Radio.SlotTime = -20e-6 },
		"NaN slot time":       func(c *Config) { c.Radio.SlotTime = math.NaN() },
		"Inf slot time":       func(c *Config) { c.Radio.SlotTime = math.Inf(1) },
		"negative DIFS":       func(c *Config) { c.Radio.DIFS = -50e-6 },
		"NaN DIFS":            func(c *Config) { c.Radio.DIFS = math.NaN() },
		"Inf DIFS":            func(c *Config) { c.Radio.DIFS = math.Inf(-1) },
	}
	for name, mutate := range mutations {
		cfg := Default(ECGRID)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", name)
		}
	}
}

func TestValidateGAFEndpoints(t *testing.T) {
	cfg := Default(GAF)
	cfg.EndpointHosts = 1
	if err := cfg.Validate(); err == nil {
		t.Fatal("GAF with one endpoint accepted")
	}
	cfg.EndpointHosts = 1
	cfg.Flows = 0
	if err := cfg.Validate(); err != nil {
		t.Fatalf("GAF without traffic rejected: %v", err)
	}
}

func TestString(t *testing.T) {
	s := Default(ECGRID).String()
	for _, want := range []string{"ecgrid", "n=100", "10pkt/s", "seed=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestValidateMobilityModel(t *testing.T) {
	cfg := Default(ECGRID)
	for _, ok := range []string{"", "waypoint", "direction"} {
		cfg.Mobility = ok
		if err := cfg.Validate(); err != nil {
			t.Errorf("mobility %q rejected: %v", ok, err)
		}
	}
	cfg.Mobility = "teleport"
	if err := cfg.Validate(); err == nil {
		t.Error("unknown mobility model accepted")
	}
}

func TestValidateGenSpec(t *testing.T) {
	cfg := Default(ECGRID)
	cfg.Gen = &scengen.Spec{Mobility: &scengen.Mobility{Kind: scengen.MobilityManhattan, BlockM: 100}}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid generator spec rejected: %v", err)
	}
	// A generator mobility axis and the plain Mobility field are two
	// answers to one question; setting both is ambiguous.
	cfg.Mobility = "waypoint"
	if err := cfg.Validate(); err == nil {
		t.Error("conflicting Mobility + generator mobility accepted")
	}
	cfg.Mobility = ""
	cfg.Gen.Mobility.BlockM = -1
	if err := cfg.Validate(); err == nil {
		t.Error("invalid generator spec accepted")
	}
	// An all-nil spec is inert and valid.
	cfg.Gen = &scengen.Spec{}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("empty generator spec rejected: %v", err)
	}
}

// TestGenOmitemptyKeepsEncoding: configs without a generator spec must
// encode exactly as before the field existed — that invariance is what
// keeps batch content keys of the whole existing corpus stable.
func TestGenOmitemptyKeepsEncoding(t *testing.T) {
	b, err := json.Marshal(Default(ECGRID))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "Gen") {
		t.Fatalf("nil Gen leaked into the encoding: %s", b)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/scenario.json"
	cfg := Default(ECGRID)
	cfg.Hosts = 42
	cfg.PauseTime = 123
	cfg.Mobility = "direction"
	if err := cfg.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hosts != 42 || got.PauseTime != 123 || got.Mobility != "direction" || got.Protocol != ECGRID {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if got.Radio.Range != cfg.Radio.Range {
		t.Fatal("nested radio config lost")
	}
}

func TestLoadRejectsInvalid(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/bad.json"
	cfg := Default(ECGRID)
	cfg.Hosts = 0 // invalid
	data := `{"Protocol":"ecgrid","Hosts":0}`
	if err := writeFile(path, data); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("invalid file accepted")
	}
	if err := writeFile(path, "{not json"); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	if _, err := Load(dir + "/missing.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func writeFile(path, data string) error {
	return os.WriteFile(path, []byte(data), 0o644)
}
