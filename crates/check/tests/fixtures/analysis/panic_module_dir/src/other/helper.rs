//! Same helper under a directory that is nobody's module: no root, skipped.
fn lookup(&self) -> u8 {
    self.slots[self.at]
}
