//! Fixture: the `panic_module_dir` actor with its site justified.
mod helper;

fn on_message(&mut self) {
    self.lookup();
}
