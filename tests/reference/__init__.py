"""Reference implementations the tests check the package against."""
