package cluster

import "bytes"

// DecodeDoc exposes the strict peer-document decoder to the external
// tests.
func DecodeDoc[T any](b []byte) (*T, error) { return decodeDoc[T](bytes.NewReader(b)) }
