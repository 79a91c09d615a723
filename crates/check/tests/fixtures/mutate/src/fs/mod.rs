//! Fixture: a module directory as a mutation target. Sites are numbered in
//! path order across `mod.rs` and `store.rs`; `tests/` is not scanned.
mod store;
#[cfg(test)]
mod tests;

fn on_message(&mut self, ctx: &mut Context, from: NodeId) {
    if self.planned.len() < self.k {
        return;
    }
    ctx.send(from, Message::StoreReply { ov });
}
