//! A1 fixture: `wire/src/mmt/header.rs` is a hot module by path.

pub fn owned_payload(buf: &[u8]) -> Vec<u8> {
    buf.to_vec()
}

// mmt-lint: cold
pub fn debug_dump(buf: &[u8]) -> Vec<u8> {
    buf.to_vec()
}
