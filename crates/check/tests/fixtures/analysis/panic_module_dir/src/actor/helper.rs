//! Reachable only from `on_message` in `../actor.rs`.
fn lookup(&self) -> u8 {
    self.slots[self.at]
}
