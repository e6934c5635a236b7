//! A1 fixture: `wire/src/mmt/ext.rs` is a hot module by path.

pub fn layout_table() -> Vec<usize> {
    vec![8, 6, 12, 8, 4, 4, 4]
}
