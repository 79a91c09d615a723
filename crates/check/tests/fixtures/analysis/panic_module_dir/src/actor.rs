//! Fixture: an actor split into a module directory. The dispatch root is
//! here; the unchecked index it reaches is in `actor/helper.rs`.
mod helper;

fn on_message(&mut self) {
    self.lookup();
}
