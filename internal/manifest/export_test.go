package manifest

// The two parse paths, for the corpus test in package manifest_test, which
// may import corpus.
var (
	ScanManifest = scanManifest
	ParseXML     = parseXML
)
