package xmlenc

// BlockSize exposes blockSize to the external tests, which hold it to
// blockSizeOracle.
var BlockSize = blockSize
