package route

// NewWithBreakers is New with the breakers' thresholds given, for the
// external tests.
var NewWithBreakers = newReplicated
