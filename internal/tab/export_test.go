package tab

// The oracle codec, for the external test that reads wire replies.
var (
	OracleRoundTrip = oracleRoundTrip
	ExactAtoms      = exactAtoms
)
