package sim

import (
	"strings"
	"testing"
)

// TestStreamRegistryUnique pins the registry's core contract: no two
// registered names (and no two names after expanding a format family
// with the same index) may map to the same seeded stream.
func TestStreamRegistryUnique(t *testing.T) {
	seen := make(map[string]bool, len(StreamRegistry))
	for _, name := range StreamRegistry {
		if name == "" {
			t.Error("empty stream name registered")
		}
		if seen[name] {
			t.Errorf("stream name %q registered twice", name)
		}
		seen[name] = true
	}
}

// TestStreamFamiliesAreFormats: any name containing a verb must be a
// family expanded via Sprintf, and plain names must not contain one —
// passing an unexpanded format to Stream would silently mint a literal
// "mob.%d" stream.
func TestStreamFamiliesAreFormats(t *testing.T) {
	families := map[string]bool{
		StreamMobility:         true,
		StreamScengenManhattan: true,
		StreamScengenGroup:     true,
	}
	for _, name := range StreamRegistry {
		if strings.Contains(name, "%") != families[name] {
			t.Errorf("stream %q: %% in non-family name (or family not declared)", name)
		}
	}
}
