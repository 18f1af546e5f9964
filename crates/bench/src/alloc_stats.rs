//! Allocator probe kept for perfbench's header.

/// Whether a counting allocator is compiled in. Always `false`: the bench
/// crate no longer has one. perfbench's header still calls this, and
/// refuses to time a build where it is `true`.
pub fn enabled() -> bool {
    false
}
