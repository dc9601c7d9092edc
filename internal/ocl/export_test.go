package ocl

// RefRun exposes the reference simulator to the external Table X test.
var RefRun = refRun
