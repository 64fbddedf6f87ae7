package distrib

import "repro/internal/obs"

// Fault-tolerance telemetry for the distributed install-time protocol:
// client-side retries and timeouts, coordinator-side lease expirations,
// work reassignments, and idempotency-layer duplicate handling.
var (
	mClientRetries    = obs.NewCounter("distrib.client_retries")
	mClientTimeouts   = obs.NewCounter("distrib.client_timeouts")
	mLeaseExpirations = obs.NewCounter("distrib.lease_expirations")
	mReRegistrations  = obs.NewCounter("distrib.reregistrations")
	mReassignedShards = obs.NewCounter("distrib.reassigned_shards")
	mReassignedSlices = obs.NewCounter("distrib.reassigned_slices")
	mDupRequests      = obs.NewCounter("distrib.duplicate_requests")
	mRedundantUploads = obs.NewCounter("distrib.redundant_uploads")
	mFaultsInjected   = obs.NewCounter("distrib.faults_injected")
)
