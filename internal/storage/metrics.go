package storage

import "github.com/odbis/odbis/internal/obs"

// Metric handles are resolved once at init so hot paths (WAL appends
// under w.mu, commit under the engine lock) never take the obs registry
// lock.
var (
	mWALAppends    = obs.GetCounter("odbis_wal_appends_total")
	mWALSyncs      = obs.GetCounter("odbis_wal_syncs_total")
	mWALBytes      = obs.GetCounter("odbis_wal_bytes_written_total")
	mWALLatchTrips = obs.GetCounter("odbis_wal_latch_trips_total")
	gSnapshotEpoch = obs.GetGauge("odbis_storage_snapshot_epoch")

	mRecoveredDuplicates = obs.GetCounter("odbis_storage_recovered_unique_violations_total")
)
