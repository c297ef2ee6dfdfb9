package feed

// NormalizeRecord exposes normalizeRecord to the external tests.
var NormalizeRecord = normalizeRecord
