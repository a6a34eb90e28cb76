"""The reference implementations that the tests compare the checker with.

None of this is installed with `totality`, and the checker never imports
it.  `terms` holds the paper's term algebra and the term path, `items`
the references for the checker's item walks, `generators` random terms,
calls and the property suite, and `oracle` the order oracle."""
