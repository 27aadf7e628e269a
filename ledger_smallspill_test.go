//go:build smallspill

package sxnm

// The smallspill tag forces every Detect through the external-sort
// spill path, so the detect and end-to-end cases of the layer ledger,
// recorded on the in-memory engine, do not describe what runs under it.
func init() { ledgerDetectSpilled = true }
