package scenegraph

// Test-only exports for the external viewer-level oracle test.
var (
	ReferenceRender  = referenceRender
	RequireSameImage = requireSameImage
)
