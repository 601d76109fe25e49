// Fixture: #[cfg(test)] modules are exempt from dead_pub, however
// deeply their items nest; the item outside them is not.
pub fn real() -> u32 {
    7
}

#[cfg(test)]
mod tests {
    pub struct Probe {
        pub seen: u32,
    }

    pub fn probe() -> Probe {
        Probe { seen: super::real() }
    }

    #[test]
    fn reads_the_probe() {
        assert_eq!(probe().seen, 7);
    }
}
