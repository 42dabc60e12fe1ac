//! Host package for the workspace-level integration tests.
//!
//! The tests themselves live in the repository's top-level `tests/`
//! directory (wired in through `[[test]]` path entries in this package's
//! manifest) so they sit beside the crates they span rather than inside any
//! one of them. This library is intentionally empty.
