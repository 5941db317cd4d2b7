from hypothesis import settings

# Property tests draw the same examples on every run, so that runs at
# different BLAS thread counts check the same scenarios.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
