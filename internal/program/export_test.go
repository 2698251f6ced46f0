package program

// SampleImage lets the external fuzz test seed its corpus with the
// package tests' sample image.
var SampleImage = sampleImage
