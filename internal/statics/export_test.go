package statics

// Built reports which lazily built parts of ex exist yet: the call graph and
// the two reach sets. It reads them unsynchronized, so no accessor may run
// concurrently with it.
func Built(ex *Extraction) (graph, staticReach, launcherReach bool) {
	return ex.graph != nil, ex.staticReach != nil, ex.launcherReach != nil
}

// ReachBlob returns the reach blob EncodeExtraction embeds for ex.
func ReachBlob(ex *Extraction) []byte {
	return encodeReachBlob(ex.StaticReach(), ex.LauncherReach())
}
