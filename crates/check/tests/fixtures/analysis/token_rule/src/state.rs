//! One token-rule finding: a hash-ordered map in actor state.

pub struct State {
    pub table: std::collections::HashMap<u64, u64>,
}
