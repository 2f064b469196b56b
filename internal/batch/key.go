package batch

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"ecgrid/internal/scenario"
)

// Key returns the job's stable content key: the hex SHA-256 of the
// config's canonical JSON encoding. Two configs with equal keys describe
// the same simulation, and a deterministic simulator therefore the same
// results — the property manifests and resume rely on. The encoding is
// canonical because Config is a plain struct (fields encode in
// declaration order, no maps) and its runtime-only fields — the Trace
// recorder and the execution settings Shards, Radio.BruteForce and
// Radio.NoRxCache — are excluded from
// serialization. The key names the model, not how it is executed: a
// serial and a sharded run of one config share it.
func Key(cfg scenario.Config) string {
	b, err := json.Marshal(cfg)
	if err != nil {
		// Config is a plain data struct; it cannot fail to marshal.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
