package wtfix

import "time"

// stall shows a trailing directive covering the next line as well: the
// annotated time.Now and the time.Since right below it both pass.
func stall() time.Duration {
	start := time.Now() //simlint:walltime stall telemetry only, never simulation state
	return time.Since(start)
}
