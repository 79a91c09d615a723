fn lookup(&self) -> u8 {
    // lint:allow(panic-path): `at` is a position `push` returned
    self.slots[self.at]
}
